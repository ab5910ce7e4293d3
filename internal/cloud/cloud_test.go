package cloud

import (
	"math"
	"math/rand"
	"testing"
)

func TestTableIMatchesPaper(t *testing.T) {
	rows := TableI()
	if len(rows) != 5 {
		t.Fatalf("Table I has %d rows, want 5", len(rows))
	}
	srv := rows[0]
	if srv.VCPU != 8 || srv.ClockGHz != 2.3 || srv.RAMGB != 61 || srv.BandwidthGbps != 10 {
		t.Fatalf("server row = %+v", srv)
	}
	wantClients := []struct {
		vcpu int
		ghz  float64
		ram  float64
		bw   float64
	}{
		{8, 2.2, 32, 5},
		{8, 2.5, 32, 5},
		{8, 2.8, 15, 2},
		{16, 2.8, 30, 2},
	}
	for i, w := range wantClients {
		c := rows[i+1]
		if c.VCPU != w.vcpu || c.ClockGHz != w.ghz || c.RAMGB != w.ram || c.BandwidthGbps != w.bw {
			t.Fatalf("client row %d = %+v, want %+v", i, c, w)
		}
	}
}

func TestSpeedOrdering(t *testing.T) {
	// ClientD (16×2.8) must be the fastest; ClientA (8×2.2) the slowest.
	cs := ClientTypes()
	for _, c := range cs {
		if c.Speed() < ClientA.Speed() && c.Name != ClientA.Name {
			t.Fatalf("%s slower than ClientA", c.Name)
		}
	}
	if ClientD.Speed() != 16*2.8 {
		t.Fatalf("ClientD speed = %v", ClientD.Speed())
	}
}

// TestFleetCostMatchesPaper reproduces §IV-E: the 5-instance fleet costs
// ≈$1.67/h standard, ≈$0.50/h preemptible (≈70% savings), so an 8-hour
// P5C5T2 run costs ≈$13.4 standard vs ≈$4 preemptible.
func TestFleetCostMatchesPaper(t *testing.T) {
	fleet := append([]InstanceType{ServerInstance}, DefaultFleet(4)...)
	std := FleetCost(fleet, false)
	spot := FleetCost(fleet, true)
	if math.Abs(std-1.67) > 0.05 {
		t.Fatalf("standard fleet $%.3f/h, want ≈$1.67/h", std)
	}
	if math.Abs(spot-0.50) > 0.03 {
		t.Fatalf("preemptible fleet $%.3f/h, want ≈$0.50/h", spot)
	}
	s := Savings(fleet)
	if s < 0.65 || s > 0.75 {
		t.Fatalf("savings %.2f, want ≈0.70", s)
	}
	if run8 := std * 8; math.Abs(run8-13.4) > 0.5 {
		t.Fatalf("8h standard run $%.2f, want ≈$13.4", run8)
	}
	if run8 := spot * 8; math.Abs(run8-4.0) > 0.3 {
		t.Fatalf("8h preemptible run $%.2f, want ≈$4", run8)
	}
}

func TestSavingsInPaperBand(t *testing.T) {
	// Preemptible discount must be 70–90% for every instance type.
	for _, it := range TableI() {
		s := 1 - it.PreemptibleUSD/it.HourlyUSD
		if s < 0.69 || s > 0.91 {
			t.Fatalf("%s savings %.2f outside 70–90%%", it.Name, s)
		}
	}
}

func TestSavingsEmptyFleet(t *testing.T) {
	if Savings(nil) != 0 {
		t.Fatal("empty fleet savings should be 0")
	}
}

func TestDefaultFleetRoundRobin(t *testing.T) {
	fleet := DefaultFleet(6)
	if len(fleet) != 6 {
		t.Fatalf("fleet size %d", len(fleet))
	}
	if fleet[0].Name != ClientA.Name || fleet[4].Name != ClientA.Name {
		t.Fatal("fleet not round-robin")
	}
}

// TestExpectedIncreaseMatchesPaper verifies the §IV-E arithmetic: P5C5T2,
// ns=2000, to=5 min gives +50 min at p=0.05 and +200 min at p=0.20.
func TestExpectedIncreaseMatchesPaper(t *testing.T) {
	m := PreemptModel{P: 0.05, TaskExecSeconds: 2.4 * 60, TimeoutSeconds: 5 * 60}
	inc := m.ExpectedIncreaseSeconds(2000, 5, 2)
	if math.Abs(inc-50*60) > 1e-9 {
		t.Fatalf("p=0.05 increase = %v min, want 50", inc/60)
	}
	m.P = 0.20
	inc = m.ExpectedIncreaseSeconds(2000, 5, 2)
	if math.Abs(inc-200*60) > 1e-9 {
		t.Fatalf("p=0.20 increase = %v min, want 200", inc/60)
	}
}

func TestExpectedTrainingTime(t *testing.T) {
	m := PreemptModel{P: 0.05, TaskExecSeconds: 2.4 * 60, TimeoutSeconds: 5 * 60}
	total := m.ExpectedTrainingSeconds(2000, 5, 2)
	// n=200 subtasks per slot: 200·2.4min + 200·0.05·5min = 480+50 min.
	if math.Abs(total-(480+50)*60) > 1e-9 {
		t.Fatalf("total = %v min, want 530", total/60)
	}
}

func TestSlotSubtasksDegenerate(t *testing.T) {
	if SlotSubtasks(100, 0, 2) != 100 {
		t.Fatal("nc=0 should fall back to ns")
	}
	if SlotSubtasks(100, 5, 0) != 100 {
		t.Fatal("ntc=0 should fall back to ns")
	}
}

// TestSampleIncreaseConcentratesOnMean: the Monte Carlo draw must agree
// with the analytic expectation within sampling error.
func TestSampleIncreaseConcentratesOnMean(t *testing.T) {
	m := PreemptModel{P: 0.05, TaskExecSeconds: 144, TimeoutSeconds: 300}
	rng := rand.New(rand.NewSource(1))
	const trials = 2000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += m.SampleIncreaseSeconds(2000, 5, 2, rng)
	}
	got := sum / trials
	want := m.ExpectedIncreaseSeconds(2000, 5, 2)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("MC mean %v vs analytic %v", got, want)
	}
}

func TestTransferTime(t *testing.T) {
	nw := Network{BaseLatency: 0.040, JitterStd: 0, Efficiency: 0.5}
	// 1 GB at 2 Gbps nominal → 1 Gbps effective = 125 MB/s → 8 s + latency.
	got := nw.TransferTime(1_000_000_000, ClientC, nil)
	if math.Abs(got-8.04) > 1e-9 {
		t.Fatalf("TransferTime = %v, want 8.04", got)
	}
}

func TestTransferTimeFasterLinkIsFaster(t *testing.T) {
	nw := Network{BaseLatency: 0.01, Efficiency: 0.3}
	slow := nw.TransferTime(10_000_000, ClientC, nil) // 2 Gbps
	fast := nw.TransferTime(10_000_000, ClientA, nil) // 5 Gbps
	if fast >= slow {
		t.Fatalf("5 Gbps (%v) not faster than 2 Gbps (%v)", fast, slow)
	}
}

func TestTransferTimeJitterNonNegative(t *testing.T) {
	nw := DefaultWAN()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		if got := nw.TransferTime(0, ClientA, rng); got < nw.BaseLatency {
			t.Fatalf("transfer time %v below base latency", got)
		}
	}
}

func TestInstanceString(t *testing.T) {
	s := ServerInstance.String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}
