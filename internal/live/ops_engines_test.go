package live

import (
	"context"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"testing"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/obs"
	"vcdl/internal/ops"
	"vcdl/internal/vcsim"
)

// opsEngine is one engine under TestOpsVerbsAgreeAcrossEngines: the ops
// core over it, a verb driver (direct calls, or HTTP for the standalone
// server), a client it runs, a client that departed, and its scheduler
// with the wall seconds per virtual second of that scheduler's clock.
type opsEngine struct {
	name             string
	core             *ops.Core
	drive            opsDriver
	active, departed string
	sched            func(func(*boinc.Scheduler))
	scale            float64
}

// opsDriver applies the verbs under test and reports whether each one
// was accepted.
type opsDriver interface {
	cordon(id string, on bool) bool
	setTimeout(seconds float64) bool
	setFloor(floor float64) bool
	setPolicy(name string) bool
	setByzantine(id, behavior string) bool
}

// coreDriver calls the core directly, the way scenario events do. A verb
// without a result counts as accepted when it lands in
// vcdl_ops_actions_total.
type coreDriver struct {
	c   *ops.Core
	reg *obs.Registry
}

func (d coreDriver) applied(action string, f func()) bool {
	before := d.reg.CounterValue("vcdl_ops_actions_total", action)
	f()
	return d.reg.CounterValue("vcdl_ops_actions_total", action) > before
}

func (d coreDriver) cordon(id string, on bool) bool { return d.c.Cordon(id, on) }
func (d coreDriver) setTimeout(s float64) bool {
	return d.applied("tune-timeout", func() { d.c.SetTimeout(s) })
}
func (d coreDriver) setFloor(f float64) bool {
	return d.applied("tune-floor", func() { d.c.SetReliabilityFloor(f) })
}
func (d coreDriver) setPolicy(name string) bool {
	p, err := boinc.NewPolicy(name)
	return err == nil && d.applied("policy-swap", func() { d.c.SetPolicy(p) })
}
func (d coreDriver) setByzantine(id, b string) bool { return d.c.SetByzantine(id, b) }

// httpDriver drives the /ops admin API, the way an operator does: 200
// is accepted, anything else refused.
type httpDriver struct {
	t    *testing.T
	base string
}

func (d httpDriver) post(path string) bool {
	d.t.Helper()
	resp, err := http.Post(d.base+path, "", nil)
	if err != nil {
		d.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func (d httpDriver) cordon(id string, on bool) bool {
	verb := "/cordon"
	if !on {
		verb = "/uncordon"
	}
	return d.post("/ops/clients/" + url.PathEscape(id) + verb)
}
func (d httpDriver) setTimeout(s float64) bool {
	return d.post("/ops/tune?timeout=" + fmtFloat(s))
}
func (d httpDriver) setFloor(f float64) bool { return d.post("/ops/tune?floor=" + fmtFloat(f)) }
func (d httpDriver) setPolicy(name string) bool {
	return d.post("/ops/policy?name=" + url.QueryEscape(name))
}
func (d httpDriver) setByzantine(id, b string) bool {
	return d.post("/ops/clients/" + url.PathEscape(id) + "/byzantine?behavior=" + url.QueryEscape(b))
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// waitKnown polls until the scheduler has heard from every id.
func waitKnown(t *testing.T, srv *Server, ids ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		seen := map[string]bool{}
		for _, s := range srv.D.Server().ClientSummaries() {
			seen[s.ID] = true
		}
		all := true
		for _, id := range ids {
			all = all && seen[id]
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scheduler never heard from %v", ids)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOpsVerbsAgreeAcrossEngines applies one verb sequence through the
// ops plane to the simulator, a live fleet and a standalone server
// driven over HTTP, and requires the same scheduler-side outcome from
// each: what is accepted or refused, the cordon flag, the default
// deadline in virtual seconds, the reliability floor, the policy, the
// Byzantine behavior and the slow factor in the listing.
func TestOpsVerbsAgreeAcrossEngines(t *testing.T) {
	fc := tinyFleetConfig(t, 2)
	fc.Server.Job.MaxEpochs = 50 // keep every job running through the sequence
	var engines []opsEngine

	// Simulator: never run, so every hook is called before Run.
	simReg := obs.NewRegistry()
	s, err := vcsim.Start(vcsim.DefaultConfig(fc.Server.Job, fc.Server.Corpus, 1, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	simCore := ops.NewCore(s, simReg)
	simIDs := simCore.ActiveClients()
	if !simCore.RemoveClient(simIDs[2]) {
		t.Fatal("sim: departing a client failed")
	}
	engines = append(engines, opsEngine{
		name: "sim", core: simCore, drive: coreDriver{simCore, simReg},
		active: simIDs[0], departed: simIDs[2], sched: s.Scheduler, scale: 1,
	})

	// Live fleet: two daemons, the second killed once the scheduler knows it.
	fleetReg := obs.NewRegistry()
	fc.Metrics = fleetReg
	f, err := StartFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fleetIDs := f.ActiveClients()
	waitKnown(t, f.Server(), fleetIDs...)
	if !f.Ops().RemoveClient(fleetIDs[1]) {
		t.Fatal("fleet: departing a client failed")
	}
	engines = append(engines, opsEngine{
		name: "fleet", core: f.Ops(), drive: coreDriver{f.Ops(), fleetReg},
		active: fleetIDs[0], departed: fleetIDs[1], sched: f.Server().D.Server().Scheduler, scale: fc.TimeScale,
	})

	// Standalone server: one volunteer daemon over loopback, and one
	// client the scheduler has written off.
	sc := fc.Server
	sc.Metrics = obs.NewRegistry()
	srv, err := StartServer("127.0.0.1:0", sc)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srvCore := srv.EnableOps()
	ctx, cancel := context.WithCancel(context.Background())
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		RunClient(ctx, ClientConfig{ID: "vol-1", ServerURL: srv.URL(), Slots: 1, Poll: 10 * time.Millisecond})
	}()
	defer func() { cancel(); <-clientDone }()
	waitKnown(t, srv, "vol-1")
	srv.D.Server().Scheduler(func(s *boinc.Scheduler) { s.DropClient("vol-gone") })
	engines = append(engines, opsEngine{
		name: "server", core: srvCore, drive: httpDriver{t, srv.URL()},
		active: "vol-1", departed: "vol-gone", sched: srv.D.Server().Scheduler, scale: 1,
	})

	for _, e := range engines {
		row := func(id string) ops.ClientStatus {
			for _, cs := range e.core.Clients() {
				if cs.ID == id {
					return cs
				}
			}
			t.Fatalf("%s: %s missing from the listing", e.name, id)
			return ops.ClientStatus{}
		}
		var cfg boinc.SchedulerConfig
		readSched := func() { e.sched(func(s *boinc.Scheduler) { cfg = s.Config() }) }
		check := func(step string, got, want bool) {
			t.Helper()
			if got != want {
				t.Errorf("%s: %s accepted = %v, want %v", e.name, step, got, want)
			}
		}

		check("cordon", e.drive.cordon(e.active, true), true)
		if !row(e.active).Cordoned {
			t.Errorf("%s: cordoned client not listed as cordoned", e.name)
		}
		check("uncordon", e.drive.cordon(e.active, false), true)
		if row(e.active).Cordoned {
			t.Errorf("%s: uncordoned client still listed as cordoned", e.name)
		}
		check("cordon of a departed client", e.drive.cordon(e.departed, true), false)
		check("cordon of an unknown client", e.drive.cordon("no-such-client", true), false)

		check("timeout 600", e.drive.setTimeout(600), true)
		check("floor 0.4", e.drive.setFloor(0.4), true)
		readSched()
		if got := cfg.DefaultTimeout / e.scale; math.Abs(got-600) > 1e-6 {
			t.Errorf("%s: default timeout = %v virtual s, want 600", e.name, got)
		}
		if cfg.ReliabilityFloor != 0.4 {
			t.Errorf("%s: reliability floor = %v, want 0.4", e.name, cfg.ReliabilityFloor)
		}

		check("policy random", e.drive.setPolicy("random"), true)
		if got := e.core.PolicyName(); got != "random" {
			t.Errorf("%s: policy = %q, want random", e.name, got)
		}

		check("byzantine spoof", e.drive.setByzantine(e.active, boinc.ByzantineSpoof), true)
		check("byzantine nonsense", e.drive.setByzantine(e.active, "nonsense"), false)
		if got := row(e.active).Byzantine; got != boinc.ByzantineSpoof {
			t.Errorf("%s: byzantine = %q, want %q", e.name, got, boinc.ByzantineSpoof)
		}

		id, ok := e.core.SlowClientAt(0, 2)
		check("slow #0", ok, true)
		if id != e.active || row(e.active).SlowFactor != 2 {
			t.Errorf("%s: slow #0 hit %q (slow factor %v), want %q at 2", e.name, id, row(e.active).SlowFactor, e.active)
		}
	}
}
