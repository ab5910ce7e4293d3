// Package cloud models the commercial-cloud substrate of the paper's
// experiments: the AWS instance fleet of Table I (vCPU count, clock speed,
// RAM, network bandwidth), standard vs. preemptible pricing (§IV-E,
// preemptible instances cost 70–90% less but can be reclaimed at any
// time), geographic regions with a WAN round-trip latency model
// (PlacedInstance, Region.RTT), and the paper's binomial analysis of the
// expected training-time increase caused by preemptions (PreemptModel).
//
// The catalog is shared by every harness: the simulator derives subtask
// durations and billing from it, and the real-mode driver paces live
// clients to the same per-instance speed model so both engines agree on
// what a "clientB" is (DESIGN.md §9).
package cloud

import (
	"fmt"
	"math/rand"
	"strings"
)

// InstanceType describes one computing-instance configuration.
type InstanceType struct {
	Name          string
	VCPU          int
	ClockGHz      float64
	RAMGB         float64
	BandwidthGbps float64
	// HourlyUSD is the standard on-demand price; PreemptibleUSD the spot
	// price (70–90% lower per the paper).
	HourlyUSD      float64
	PreemptibleUSD float64
}

// Speed returns the relative compute throughput of the instance in
// vCPU·GHz, the unit the simulator's cost model divides work by.
func (it InstanceType) Speed() float64 { return float64(it.VCPU) * it.ClockGHz }

// String renders a Table-I-style row.
func (it InstanceType) String() string {
	return fmt.Sprintf("%-14s %2d vCPU  %.1f GHz  %5.1f GB  up to %.0f Gbps  $%.3f/h ($%.3f/h spot)",
		it.Name, it.VCPU, it.ClockGHz, it.RAMGB, it.BandwidthGbps, it.HourlyUSD, it.PreemptibleUSD)
}

// Table I of the paper: one server configuration and four client
// configurations. Prices are derived from the paper's §IV-E fleet numbers:
// the P5C5T2 fleet (server + 4 clients + 1 duplicate ≈ 40 vCPU / 160 GB)
// costs $1.67/h standard and $0.50/h preemptible, i.e. 70% savings; prices
// below are distributed per instance in proportion to vCPU·GHz.
var (
	// ServerInstance is the single standard instance hosting the parameter
	// servers, Redis, the BOINC web server and the BOINC database.
	ServerInstance = InstanceType{
		Name: "server-8x2.3", VCPU: 8, ClockGHz: 2.3, RAMGB: 61, BandwidthGbps: 10,
		HourlyUSD: 0.40, PreemptibleUSD: 0.12,
	}
	// ClientA is the 8 vCPU / 2.2 GHz / 32 GB / 5 Gbps client row.
	ClientA = InstanceType{
		Name: "client-8x2.2", VCPU: 8, ClockGHz: 2.2, RAMGB: 32, BandwidthGbps: 5,
		HourlyUSD: 0.33, PreemptibleUSD: 0.10,
	}
	// ClientB is the 8 vCPU / 2.5 GHz / 32 GB / 5 Gbps client row.
	ClientB = InstanceType{
		Name: "client-8x2.5", VCPU: 8, ClockGHz: 2.5, RAMGB: 32, BandwidthGbps: 5,
		HourlyUSD: 0.35, PreemptibleUSD: 0.105,
	}
	// ClientC is the 8 vCPU / 2.8 GHz / 15 GB / 2 Gbps client row.
	ClientC = InstanceType{
		Name: "client-8x2.8", VCPU: 8, ClockGHz: 2.8, RAMGB: 15, BandwidthGbps: 2,
		HourlyUSD: 0.28, PreemptibleUSD: 0.084,
	}
	// ClientD is the 16 vCPU / 2.8 GHz / 30 GB / 2 Gbps client row.
	ClientD = InstanceType{
		Name: "client-16x2.8", VCPU: 16, ClockGHz: 2.8, RAMGB: 30, BandwidthGbps: 2,
		HourlyUSD: 0.31, PreemptibleUSD: 0.093,
	}
)

// TableI returns the paper's full instance catalog, server first.
func TableI() []InstanceType {
	return []InstanceType{ServerInstance, ClientA, ClientB, ClientC, ClientD}
}

// ClientTypes returns the four client configurations of Table I.
func ClientTypes() []InstanceType {
	return []InstanceType{ClientA, ClientB, ClientC, ClientD}
}

// DefaultFleet returns n client instances drawn round-robin from the Table
// I client types, matching the paper's "fleet of computing instances of
// different types" with one client per instance.
func DefaultFleet(n int) []InstanceType {
	types := ClientTypes()
	fleet := make([]InstanceType, n)
	for i := range fleet {
		fleet[i] = types[i%len(types)]
	}
	return fleet
}

// InstanceByName resolves an instance type from its Table I name or the
// clientA..clientD aliases (case-insensitive for the aliases).
func InstanceByName(name string) (InstanceType, bool) {
	switch strings.ToLower(name) {
	case "clienta":
		return ClientA, true
	case "clientb":
		return ClientB, true
	case "clientc":
		return ClientC, true
	case "clientd":
		return ClientD, true
	}
	for _, it := range TableI() {
		if it.Name == name {
			return it, true
		}
	}
	return InstanceType{}, false
}

// FleetCost sums the hourly price of a fleet (preemptible or standard).
func FleetCost(fleet []InstanceType, preemptible bool) float64 {
	c := 0.0
	for _, it := range fleet {
		if preemptible {
			c += it.PreemptibleUSD
		} else {
			c += it.HourlyUSD
		}
	}
	return c
}

// Savings returns the fractional cost reduction of running the fleet on
// preemptible instances (the paper reports 70–90%).
func Savings(fleet []InstanceType) float64 {
	std := FleetCost(fleet, false)
	if std == 0 {
		return 0
	}
	return 1 - FleetCost(fleet, true)/std
}

// Network models WAN communication between clients and the server:
// per-transfer base latency with jitter plus bandwidth-limited throughput.
// The paper's clients "can be in different geographical regions" and
// communicate over variable-latency links rather than a cluster LAN.
type Network struct {
	// BaseLatency is the one-way latency floor in seconds.
	BaseLatency float64
	// JitterStd is the standard deviation of additional latency.
	JitterStd float64
	// Efficiency derates nominal bandwidth (protocol overhead, congestion).
	Efficiency float64
}

// DefaultWAN returns a wide-area profile: 40 ms ± 20 ms latency, 30% of
// nominal bandwidth achieved.
func DefaultWAN() Network {
	return Network{BaseLatency: 0.040, JitterStd: 0.020, Efficiency: 0.3}
}

// TransferTimeRTT is TransferTime plus an explicit round-trip latency.
// Callers that override a region's static RTT (outage injection, scenario
// replay) compute the effective round trip themselves and pass it here.
func (nw Network) TransferTimeRTT(n int, rtt float64, inst InstanceType, rng *rand.Rand) float64 {
	if rtt < 0 {
		rtt = 0
	}
	return rtt + nw.TransferTime(n, inst, rng)
}

// TransferTime returns the virtual seconds needed to move n bytes to or
// from an instance with the given nominal bandwidth.
func (nw Network) TransferTime(n int, inst InstanceType, rng *rand.Rand) float64 {
	lat := nw.BaseLatency
	if nw.JitterStd > 0 && rng != nil {
		j := rng.NormFloat64() * nw.JitterStd
		if j < 0 {
			j = -j
		}
		lat += j
	}
	bps := inst.BandwidthGbps * nw.Efficiency * 1e9 / 8
	if bps <= 0 {
		return lat
	}
	return lat + float64(n)/bps
}
