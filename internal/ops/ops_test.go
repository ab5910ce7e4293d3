package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/obs"
)

// fakeTarget implements every capability, the scheduler seam over a
// real boinc.Scheduler, and records the engine-side calls.
type fakeTarget struct {
	calls     []string
	sched     *boinc.Scheduler
	byzantine map[string]string
	pservers  int
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{
		sched:     boinc.NewScheduler(boinc.DefaultSchedulerConfig()),
		byzantine: map[string]string{},
		pservers:  2,
	}
}

func (f *fakeTarget) note(s string) { f.calls = append(f.calls, s) }

func (f *fakeTarget) ActiveClients() []string { return []string{"c1", "c2", "c3"} }
func (f *fakeTarget) AddClient(inst cloud.InstanceType, region cloud.Region) string {
	f.note("add")
	return "c4"
}
func (f *fakeTarget) RemoveClients(n int) []string { f.note("removeN"); return []string{"c3", "c2"} }
func (f *fakeTarget) RemoveClient(id string) bool  { f.note("remove " + id); return id != "ghost" }
func (f *fakeTarget) SlowClient(id string, factor float64) bool {
	f.note("slow " + id)
	return id != "ghost"
}
func (f *fakeTarget) SetPreemptProb(p float64) { f.note("preempt") }
func (f *fakeTarget) PreemptModel(p float64) cloud.PreemptModel {
	return cloud.PreemptModel{P: p}
}
func (f *fakeTarget) FleetShape() (int, int)                        { return 10, 2 }
func (f *fakeTarget) SetRegionRTT(region cloud.Region, rtt float64) { f.note("rtt") }
func (f *fakeTarget) ClearRegionRTT(region cloud.Region)            { f.note("clear-rtt") }
func (f *fakeTarget) PServers() int                                 { return f.pservers }
func (f *fakeTarget) SetPServers(n int)                             { f.pservers = n }
func (f *fakeTarget) Scheduler(fn func(*boinc.Scheduler))           { fn(f.sched) }
func (f *fakeTarget) ClientSummaries() []boinc.ClientSummary        { return f.sched.ClientSummaries() }
func (f *fakeTarget) PolicyName() string                            { return f.sched.Policy().Name() }
func (f *fakeTarget) TimeScale() float64                            { return 1 }
func (f *fakeTarget) SetByzantine(id, behavior string) bool {
	if id == "ghost" {
		return false
	}
	f.byzantine[id] = behavior
	return true
}
func (f *fakeTarget) DetachClient(id string) bool  { f.note("detach " + id); return id != "ghost" }
func (f *fakeTarget) DetachClients(n int) []string { return []string{"c3"} }
func (f *fakeTarget) RejoinClient(id string) bool  { f.note("rejoin " + id); return id != "ghost" }
func (f *fakeTarget) RejoinClients(n int) []string { return []string{"c3"} }
func (f *fakeTarget) SetBlobKill(n int64) bool     { return true }
func (f *fakeTarget) ClientStatus() []ClientStatus {
	return []ClientStatus{
		{ID: "c1", Active: true},
		{ID: "c2", Active: true, Byzantine: f.byzantine["c2"]},
		{ID: "c3", Active: false},
	}
}

// bareTarget has only the required minimum.
type bareTarget struct{}

func (bareTarget) ActiveClients() []string { return []string{"x1"} }

func TestCoreCountsActions(t *testing.T) {
	reg := obs.NewRegistry()
	ft := newFakeTarget()
	c := NewCore(ft, reg)

	if !c.Cordon("c2", true) {
		t.Fatal("cordon c2 should succeed")
	}
	if c.Cordon("ghost", true) {
		t.Fatal("cordon ghost should fail")
	}
	c.SetPolicy(nil)
	c.SetPServers(5)
	if got := c.PServers(); got != 5 {
		t.Fatalf("PServers = %d, want 5", got)
	}
	if !c.SetByzantine("c2", boinc.ByzantineSpoof) {
		t.Fatal("byzantine c2 should succeed")
	}
	c.RemoveClient("c1")
	c.DetachClient("c2")
	c.RejoinClient("c3")
	c.SetTimeout(300)
	c.SetReliabilityFloor(0.4)
	c.SetPreemptProb(0.1)

	want := map[string]int64{
		"cordon": 1, "policy-swap": 1, "ps-resize": 1, "byzantine": 1,
		"kill": 1, "drain": 1, "rejoin": 1,
		"tune-timeout": 1, "tune-floor": 1, "preempt": 1,
	}
	for action, n := range want {
		if got := reg.CounterValue("vcdl_ops_actions_total", action); got != n {
			t.Errorf("actions_total{%s} = %d, want %d", action, got, n)
		}
	}
	if got := reg.CounterValue("vcdl_ops_failures_total", "cordon"); got != 1 {
		t.Errorf("failures_total{cordon} = %d, want 1", got)
	}
}

func TestCoreMissingCapabilities(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCore(bareTarget{}, reg)

	if c.Cordon("x1", true) {
		t.Error("cordon should fail without Scheduled")
	}
	if c.SetByzantine("x1", boinc.ByzantineSpoof) {
		t.Error("byzantine should fail without Byzantiner")
	}
	if got := c.RemoveClients(2); got != nil {
		t.Errorf("RemoveClients = %v, want nil", got)
	}
	c.SetPServers(3) // no-op, counted as failure
	if got := c.PServers(); got != 0 {
		t.Errorf("PServers = %d, want 0", got)
	}
	if !c.KnownClient("never-heard-of-it") {
		t.Error("KnownClient should be conservative (true) without Lister")
	}
	clients := c.Clients()
	if len(clients) != 1 || clients[0].ID != "x1" {
		t.Errorf("Clients fallback = %+v, want one bare x1 row", clients)
	}
	if got := reg.CounterValue("vcdl_ops_failures_total", "cordon"); got != 1 {
		t.Errorf("failures_total{cordon} = %d, want 1", got)
	}
	if got := reg.CounterValue("vcdl_ops_failures_total", "ps-resize"); got != 1 {
		t.Errorf("failures_total{ps-resize} = %d, want 1", got)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	ft := newFakeTarget()
	srv := httptest.NewServer(NewCore(ft, reg).Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}
	post := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		if _, err := io.Copy(&sb, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/ops/clients"); code != http.StatusOK {
		t.Fatalf("GET /ops/clients = %d: %s", code, body)
	} else {
		var list []ClientStatus
		if err := json.Unmarshal([]byte(body), &list); err != nil {
			t.Fatalf("clients JSON: %v", err)
		}
		if len(list) != 3 {
			t.Fatalf("clients = %d rows, want 3", len(list))
		}
	}
	if code, body := get("/ops/snapshot"); code != http.StatusOK {
		t.Fatalf("GET /ops/snapshot = %d: %s", code, body)
	} else {
		var snap Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("snapshot JSON: %v", err)
		}
		if snap.Policy != "paper" || snap.PServers != 2 || snap.ActiveClients != 2 {
			t.Fatalf("snapshot = %+v", snap)
		}
	}

	for _, tc := range []struct {
		path string
		code int
	}{
		{"/ops/clients/c2/cordon", http.StatusOK},
		{"/ops/clients/c2/uncordon", http.StatusOK},
		{"/ops/clients/c2/drain", http.StatusOK},
		{"/ops/clients/c1/kill", http.StatusOK},
		{"/ops/clients/c3/rejoin", http.StatusOK},
		{"/ops/clients/c1/slow?factor=2.5", http.StatusOK},
		{"/ops/clients/c1/slow", http.StatusBadRequest},
		{"/ops/clients/c2/byzantine?behavior=wrong-result", http.StatusOK},
		{"/ops/clients/c2/byzantine?behavior=nonsense", http.StatusBadRequest},
		{"/ops/clients/ghost/cordon", http.StatusConflict},
		{"/ops/clients/c1/frobnicate", http.StatusNotFound},
		{"/ops/policy?name=random", http.StatusOK},
		{"/ops/policy?name=nonsense", http.StatusBadRequest},
		{"/ops/ps?n=3", http.StatusOK},
		{"/ops/ps?n=zero", http.StatusBadRequest},
		// Refused before the pool is touched: pservers stays 3 (below).
		{"/ops/ps?n=1000000000", http.StatusBadRequest},
		{"/ops/tune?timeout=600&floor=0.4", http.StatusOK},
		{"/ops/tune", http.StatusBadRequest},
		{"/ops/join?inst=clientC", http.StatusOK},
	} {
		if code, body := post(tc.path); code != tc.code {
			t.Errorf("POST %s = %d, want %d: %s", tc.path, code, tc.code, body)
		}
	}

	if ft.byzantine["c2"] != boinc.ByzantineWrongResult {
		t.Errorf("byzantine[c2] = %q, want wrong-result", ft.byzantine["c2"])
	}
	if ft.pservers != 3 {
		t.Errorf("pservers = %d, want 3", ft.pservers)
	}
	if got := reg.CounterValue("vcdl_ops_actions_total", "cordon"); got != 1 {
		t.Errorf("actions_total{cordon} = %d, want 1", got)
	}
	if got := reg.CounterValue("vcdl_ops_actions_total", "list"); got == 0 {
		t.Error("listing via HTTP should count as a list action")
	}
}
