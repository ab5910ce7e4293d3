package scenario

import (
	"fmt"
	"strings"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/ops"
)

// fmtT renders an event's virtual firing time for descriptions.
func fmtT(sec float64) string {
	switch {
	case sec >= 3600:
		return fmt.Sprintf("%gh", sec/3600)
	case sec >= 60:
		return fmt.Sprintf("%gm", sec/60)
	default:
		return fmt.Sprintf("%gs", sec)
	}
}

// joinEvent adds n clients to the pool (volunteer churn / flash crowd).
type joinEvent struct {
	at     float64
	n      int
	inst   cloud.InstanceType
	mixed  bool // round-robin over Table I client types
	region cloud.Region
}

func (e joinEvent) At() float64 { return e.at }
func (e joinEvent) Desc() string {
	name := e.inst.Name
	if e.mixed {
		name = "mixed"
	}
	return fmt.Sprintf("at %s join %d %s @%s", fmtT(e.at), e.n, name, e.region)
}
func (e joinEvent) Apply(s *ops.Core) string {
	types := []cloud.InstanceType{e.inst}
	if e.mixed {
		types = cloud.ClientTypes()
	}
	var first, last string
	for i := 0; i < e.n; i++ {
		id, ok := s.AddClient(types[i%len(types)], e.region)
		if !ok {
			// The target lacks the capability, so the first join is
			// refused and the rest would be too.
			return fmt.Sprintf("join %d refused @%s (engine cannot add clients)", e.n, e.region)
		}
		if i == 0 {
			first = id
		}
		last = id
	}
	if e.n == 1 {
		return fmt.Sprintf("join %s @%s", first, e.region)
	}
	return fmt.Sprintf("join %d clients (%s..%s) @%s", e.n, first, last, e.region)
}

// memberEvent changes fleet membership by count (most recent first) or
// by client ID. verb picks the ops action: "leave" departs clients
// abruptly; "detach" departs them gracefully, after they finish their
// in-flight assignments (real engine only — sim departures are always
// abrupt); "rejoin" revives departed clients under their original
// identity, so with the data plane on they return holding a warm blob
// cache (real engine only). Modes marks detach and rejoin real-only.
type memberEvent struct {
	at   float64
	verb string // "leave" | "detach" | "rejoin"
	n    int
	id   string // non-empty: address this client instead of a count
}

func (e memberEvent) At() float64 { return e.at }
func (e memberEvent) Desc() string {
	if e.id != "" {
		return fmt.Sprintf("at %s %s %s", fmtT(e.at), e.verb, e.id)
	}
	return fmt.Sprintf("at %s %s %d", fmtT(e.at), e.verb, e.n)
}
func (e memberEvent) TargetID() string { return e.id }
func (e memberEvent) Apply(s *ops.Core) string {
	one, many, pool, remain := s.RemoveClient, s.RemoveClients, "active", "active remain"
	switch e.verb {
	case "detach":
		one, many = s.DetachClient, s.DetachClients
	case "rejoin":
		one, many, pool, remain = s.RejoinClient, s.RejoinClients, "departed", "active now"
	}
	if e.id != "" {
		if one(e.id) {
			return e.verb + " " + e.id
		}
		return fmt.Sprintf("%s %s (no such %s client)", e.verb, e.id, pool)
	}
	ids := many(e.n)
	return fmt.Sprintf("%s %d clients %v (%d %s)", e.verb, len(ids), ids, len(s.ActiveClients()), remain)
}

// preemptEvent hot-changes the preemption probability; p > 0 starts a
// storm, p = 0 ends it. The trace reports the §IV-E binomial prediction
// for the storm's expected training-time increase.
type preemptEvent struct {
	at float64
	p  float64
}

func (e preemptEvent) At() float64 { return e.at }
func (e preemptEvent) Desc() string {
	return fmt.Sprintf("at %s preempt %g", fmtT(e.at), e.p)
}
func (e preemptEvent) Apply(s *ops.Core) string {
	s.SetPreemptProb(e.p)
	if e.p == 0 {
		return "preemption storm ends (p=0)"
	}
	m := s.PreemptModel(e.p)
	ns, tn := s.FleetShape()
	nc := len(s.ActiveClients())
	inc := m.ExpectedIncreaseSeconds(ns, nc, tn)
	return fmt.Sprintf("preemption storm p=%g (binomial model: +%.1f min/epoch expected)", e.p, inc/60)
}

// outageEvent spikes a region's round-trip latency; recoverEvent
// restores the static latency.
type outageEvent struct {
	at     float64
	region cloud.Region
	rtt    float64
}

func (e outageEvent) At() float64 { return e.at }
func (e outageEvent) Desc() string {
	return fmt.Sprintf("at %s outage %s rtt=%gs", fmtT(e.at), e.region, e.rtt)
}
func (e outageEvent) Apply(s *ops.Core) string {
	s.SetRegionRTT(e.region, e.rtt)
	return fmt.Sprintf("region %s outage: RTT %.0f ms -> %.0f ms", e.region, e.region.RTT()*1000, e.rtt*1000)
}

type recoverEvent struct {
	at     float64
	region cloud.Region
}

func (e recoverEvent) At() float64 { return e.at }
func (e recoverEvent) Desc() string {
	return fmt.Sprintf("at %s recover %s", fmtT(e.at), e.region)
}
func (e recoverEvent) Apply(s *ops.Core) string {
	s.ClearRegionRTT(e.region)
	return fmt.Sprintf("region %s recovered (RTT back to %.0f ms)", e.region, e.region.RTT()*1000)
}

// slowEvent turns a client into a straggler (factor > 1) or restores it
// (factor 1). The client is addressed by active-list index or by ID.
type slowEvent struct {
	at     float64
	index  int
	id     string // non-empty: address by ID
	factor float64
}

func (e slowEvent) At() float64 { return e.at }
func (e slowEvent) Desc() string {
	who := e.id
	if who == "" {
		who = fmt.Sprintf("#%d", e.index)
	}
	return fmt.Sprintf("at %s slow %s x%g", fmtT(e.at), who, e.factor)
}
func (e slowEvent) TargetID() string { return e.id }
func (e slowEvent) Apply(s *ops.Core) string {
	if e.id != "" {
		if s.SlowClient(e.id, e.factor) {
			return fmt.Sprintf("slow %s x%g", e.id, e.factor)
		}
		return fmt.Sprintf("slow %s (no such active client)", e.id)
	}
	id, ok := s.SlowClientAt(e.index, e.factor)
	if !ok {
		return fmt.Sprintf("slow #%d (no such active client)", e.index)
	}
	return fmt.Sprintf("slow %s x%g", id, e.factor)
}

// psEvent resizes the parameter-server pool (failover and recovery).
type psEvent struct {
	at    float64
	delta int // negative: fail |delta| processes; positive: recover
}

func (e psEvent) At() float64 { return e.at }
func (e psEvent) Desc() string {
	if e.delta < 0 {
		return fmt.Sprintf("at %s ps-fail %d", fmtT(e.at), -e.delta)
	}
	return fmt.Sprintf("at %s ps-recover %d", fmtT(e.at), e.delta)
}
func (e psEvent) Apply(s *ops.Core) string {
	before := s.PServers()
	s.SetPServers(before + e.delta)
	if e.delta < 0 {
		return fmt.Sprintf("parameter-server failover: %d -> %d PS", before, s.PServers())
	}
	return fmt.Sprintf("parameter-server recovery: %d -> %d PS", before, s.PServers())
}

// policyEvent hot-swaps the scheduler's assignment policy. The name and
// arguments are validated at parse time; Apply re-instantiates so each
// run (and each seed override) gets a fresh policy.
type policyEvent struct {
	at   float64
	name string
	args []string
}

func (e policyEvent) At() float64 { return e.at }
func (e policyEvent) Desc() string {
	return strings.TrimSpace(fmt.Sprintf("at %s policy %s %s", fmtT(e.at), e.name, strings.Join(e.args, " ")))
}
func (e policyEvent) Apply(s *ops.Core) string {
	p, err := boinc.NewPolicy(e.name, e.args...)
	if err != nil {
		return fmt.Sprintf("policy %s not swapped: %v", e.name, err)
	}
	before := s.PolicyName()
	s.SetPolicy(p)
	return fmt.Sprintf("scheduler policy %s -> %s", before, p.Name())
}

// setEvent hot-changes a scheduler parameter.
type setEvent struct {
	at    float64
	key   string // "timeout" | "floor"
	value float64
}

func (e setEvent) At() float64 { return e.at }
func (e setEvent) Desc() string {
	return fmt.Sprintf("at %s set %s %g", fmtT(e.at), e.key, e.value)
}
func (e setEvent) Apply(s *ops.Core) string {
	switch e.key {
	case "timeout":
		s.SetTimeout(e.value)
		return fmt.Sprintf("scheduler timeout -> %s", fmtT(e.value))
	case "floor":
		s.SetReliabilityFloor(e.value)
		return fmt.Sprintf("scheduler reliability floor -> %g", e.value)
	}
	return "set " + e.key + " (unknown key)"
}

// cordonEvent quarantines a client (no new work while in-flight results
// complete or expire) or releases it. Both engines support it: the
// quarantine lives in the scheduler, which both stacks share.
type cordonEvent struct {
	at float64
	id string
	on bool // true = cordon, false = uncordon
}

func (e cordonEvent) At() float64      { return e.at }
func (e cordonEvent) TargetID() string { return e.id }
func (e cordonEvent) Desc() string {
	verb := "cordon"
	if !e.on {
		verb = "uncordon"
	}
	return fmt.Sprintf("at %s %s %s", fmtT(e.at), verb, e.id)
}
func (e cordonEvent) Apply(s *ops.Core) string {
	verb := "cordon"
	if !e.on {
		verb = "uncordon"
	}
	if !s.Cordon(e.id, e.on) {
		return fmt.Sprintf("%s %s (no such active client)", verb, e.id)
	}
	if e.on {
		return fmt.Sprintf("cordon %s (quarantined: no new work)", e.id)
	}
	return fmt.Sprintf("uncordon %s (back in the pool)", e.id)
}

// byzantineEvent switches a client's adversarial behavior mid-run
// ("off" restores honesty). Both engines support it: the simulator
// flips the client's behavior flag, the real engine ships the behavior
// to the live daemon through ClientControl.
type byzantineEvent struct {
	at       float64
	id       string
	behavior string // boinc.ByzantineBehaviors, or "off"
}

func (e byzantineEvent) At() float64      { return e.at }
func (e byzantineEvent) TargetID() string { return e.id }
func (e byzantineEvent) Desc() string {
	return fmt.Sprintf("at %s byzantine %s %s", fmtT(e.at), e.id, e.behavior)
}
func (e byzantineEvent) Apply(s *ops.Core) string {
	if !s.SetByzantine(e.id, e.behavior) {
		return fmt.Sprintf("byzantine %s (no such active client)", e.id)
	}
	if e.behavior == "off" {
		return fmt.Sprintf("byzantine %s off (honest again)", e.id)
	}
	return fmt.Sprintf("byzantine %s now %s", e.id, e.behavior)
}

// blobKillEvent arms (bytes > 0) or disarms (bytes 0) data-plane fault
// injection: the server severs every blob transfer after that many
// bytes, forcing clients through the Range-resume path. Real-mode only.
type blobKillEvent struct {
	at    float64
	bytes int64 // 0 disarms
}

func (e blobKillEvent) At() float64 { return e.at }
func (e blobKillEvent) Desc() string {
	if e.bytes == 0 {
		return fmt.Sprintf("at %s blob-kill off", fmtT(e.at))
	}
	return fmt.Sprintf("at %s blob-kill %d", fmtT(e.at), e.bytes)
}
func (e blobKillEvent) Apply(s *ops.Core) string {
	if !s.SetBlobKill(e.bytes) {
		return "blob-kill skipped (data plane is off — add 'blobs on' to the fleet)"
	}
	if e.bytes == 0 {
		return "blob transfer kills disarmed"
	}
	return fmt.Sprintf("blob transfers now severed after %d bytes (clients resume via Range)", e.bytes)
}
