package vcsim

import (
	"testing"

	"vcdl/internal/cloud"
	"vcdl/internal/ops"
)

// startQuick builds a started Sim on the quick workload.
func startQuick(t *testing.T, pn, cn, tn, epochs int) *Sim {
	t.Helper()
	job, corpus := quickSetup(t)
	job.MaxEpochs = epochs
	cfg := DefaultConfig(job, corpus, pn, cn, tn)
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStartRunMatchesRun(t *testing.T) {
	job, corpus := quickSetup(t)
	job.MaxEpochs = 3
	cfg := DefaultConfig(job, corpus, 2, 3, 2)
	direct, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if direct.Hours != staged.Hours || direct.Curve.FinalValue() != staged.Curve.FinalValue() {
		t.Fatalf("Start+Run diverges from Run: %v/%v vs %v/%v",
			direct.Hours, direct.Curve.FinalValue(), staged.Hours, staged.Curve.FinalValue())
	}
}

func TestJoinSpeedsUpLeaveCausesTimeouts(t *testing.T) {
	// Baseline: 2 clients throughout.
	base, err := startQuick(t, 1, 2, 2, 3).Run()
	if err != nil {
		t.Fatal(err)
	}

	// Flash crowd: 4 extra clients join shortly after start.
	crowd := startQuick(t, 1, 2, 2, 3)
	crowd.Engine().Schedule(200, func() {
		for i := 0; i < 4; i++ {
			crowd.AddClient(cloud.ClientB, cloud.USEast)
		}
	})
	fast, err := crowd.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fast.Hours >= base.Hours {
		t.Fatalf("flash crowd did not speed up training: %v vs %v h", fast.Hours, base.Hours)
	}

	// Churn: one of the two clients leaves mid-run; its in-flight work
	// must be reissued via timeout, and training must still finish.
	churn := startQuick(t, 1, 2, 2, 3)
	churn.Engine().Schedule(400, func() {
		if gone := churn.RemoveClients(1); len(gone) != 1 {
			t.Errorf("RemoveClients departed %v", gone)
		}
	})
	rough, err := churn.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rough.Timeouts == 0 || rough.Reissued == 0 {
		t.Fatalf("leave produced no timeouts/reissues: %+v", rough)
	}
	if len(rough.Curve.Points) != 3 {
		t.Fatalf("training did not survive churn: %d epochs", len(rough.Curve.Points))
	}
	if rough.Hours <= base.Hours {
		t.Fatalf("losing a client did not slow training: %v vs %v h", rough.Hours, base.Hours)
	}
	// The departed client bills only for its active window, so the run
	// must cost less than the full fleet held for the whole duration.
	full := cloud.FleetCost([]cloud.InstanceType{cloud.ServerInstance, cloud.ClientA, cloud.ClientB}, false) * rough.Hours
	if rough.CostStandardUSD >= full {
		t.Fatalf("churned fleet billed full duration: %v >= %v", rough.CostStandardUSD, full)
	}
}

func TestStragglerSlowdownStretchesRun(t *testing.T) {
	base, err := startQuick(t, 1, 3, 2, 2).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := startQuick(t, 1, 3, 2, 2)
	s.Engine().Schedule(0, func() {
		if _, ok := ops.NewCore(s, nil).SlowClientAt(0, 6); !ok {
			t.Error("SlowClientAt(0) failed")
		}
	})
	slow, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if slow.Hours <= base.Hours {
		t.Fatalf("straggler did not stretch the run: %v vs %v h", slow.Hours, base.Hours)
	}
}

func TestRegionOutageSlowsTransfers(t *testing.T) {
	mk := func() *Sim {
		s := startQuick(t, 1, 3, 2, 2)
		return s
	}
	base, err := mk().Run()
	if err != nil {
		t.Fatal(err)
	}
	s := mk()
	// All quick-fleet clients are server-local (USEast); a 30 s RTT
	// "outage" on that region hits every transfer.
	s.Engine().Schedule(0, func() { s.SetRegionRTT(cloud.USEast, 30) })
	out, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Hours <= base.Hours {
		t.Fatalf("outage did not slow the run: %v vs %v h", out.Hours, base.Hours)
	}
	// Recovery restores the baseline latency for the rest of the run.
	s2 := mk()
	s2.Engine().Schedule(0, func() { s2.SetRegionRTT(cloud.USEast, 30) })
	s2.Engine().Schedule(600, func() { s2.ClearRegionRTT(cloud.USEast) })
	rec, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Hours >= out.Hours {
		t.Fatalf("recovery did not help: %v vs %v h", rec.Hours, out.Hours)
	}
}

func TestMidRunPreemptStorm(t *testing.T) {
	s := startQuick(t, 1, 3, 2, 3)
	s.Engine().Schedule(0, func() { ops.NewCore(s, nil).SetTimeout(400) })
	s.Engine().Schedule(300, func() { s.SetPreemptProb(0.5) })
	s.Engine().Schedule(3000, func() { s.SetPreemptProb(0) })
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeouts == 0 {
		t.Fatal("storm produced no timeouts")
	}
	if len(res.Curve.Points) != 3 {
		t.Fatalf("training did not survive the storm: %d epochs", len(res.Curve.Points))
	}
	m := s.PreemptModel(0.5)
	if m.P != 0.5 || m.TimeoutSeconds != 400 {
		t.Fatalf("PreemptModel not wired to live config: %+v", m)
	}
}

func TestPSFailoverAndSchedulerHotConfig(t *testing.T) {
	s := startQuick(t, 3, 3, 4, 2)
	s.Engine().Schedule(100, func() {
		s.SetPServers(1) // two PS processes fail
		ops.NewCore(s, nil).SetReliabilityFloor(0.9)
	})
	s.Engine().Schedule(2000, func() { s.SetPServers(3) })
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) != 2 {
		t.Fatalf("failover broke training: %d epochs", len(res.Curve.Points))
	}
	if res.MaxPSUsed < 3 {
		t.Fatalf("MaxPSUsed = %d", res.MaxPSUsed)
	}
	if got := s.r.sched.Config().ReliabilityFloor; got != 0.9 {
		t.Fatalf("reliability floor = %v", got)
	}
}
