package boinc

import (
	"bytes"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestMultipleApplications runs two server applications through one
// client, each with its own executable (§II-C: a BOINC server hosts many
// applications).
func TestMultipleApplications(t *testing.T) {
	var mu sync.Mutex
	got := map[string][]byte{}
	srv := NewServer(DefaultSchedulerConfig(), nil, func(wu *Workunit, output []byte, _ Decoded) {
		mu.Lock()
		got[wu.Name] = bytes.Clone(output)
		mu.Unlock()
	})
	srv.AddWorkunit(Workunit{Name: "train", App: "trainer", Payload: []byte("x")})
	srv.AddWorkunit(Workunit{Name: "score", App: "scorer", Payload: []byte("x")})
	srv.AddWorkunit(Workunit{Name: "plain"}) // default app
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := NewClient("c1", ts.URL, 3, AppFunc(func(Assignment, map[string][]byte) ([]byte, error) {
		return []byte("default"), nil
	}))
	cl.RegisterApp("trainer", AppFunc(func(Assignment, map[string][]byte) ([]byte, error) {
		return []byte("trained"), nil
	}))
	cl.RegisterApp("scorer", AppFunc(func(Assignment, map[string][]byte) ([]byte, error) {
		return []byte("scored"), nil
	}))
	if _, err := cl.Step(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if string(got["train"]) != "trained" || string(got["score"]) != "scored" || string(got["plain"]) != "default" {
		t.Fatalf("app routing wrong: %q", got)
	}
}

// TestUnknownAppFallsBackToDefault keeps old clients compatible with new
// server applications.
func TestUnknownAppFallsBackToDefault(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.AddWorkunit(Workunit{Name: "new", App: "future-app"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := NewClient("c1", ts.URL, 1, echoApp())
	if _, err := cl.Step(); err != nil {
		t.Fatal(err)
	}
	if cl.Completed != 1 {
		t.Fatalf("Completed = %d", cl.Completed)
	}
}

// TestNilDefaultAppReportsFailure: a client with no default app must fail
// unmatched assignments gracefully (upload a failure, not crash).
func TestNilDefaultAppReportsFailure(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.AddWorkunit(Workunit{Name: "t", App: "only-this"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := NewClient("c1", ts.URL, 1, nil)
	cl.RegisterApp("something-else", echoApp())
	if _, err := cl.Step(); err != nil {
		t.Fatal(err)
	}
	if cl.Failed != 1 {
		t.Fatalf("Failed = %d, want graceful failure", cl.Failed)
	}
	srv.Scheduler(func(s *Scheduler) {
		if s.Reissued != 1 {
			t.Fatalf("Reissued = %d", s.Reissued)
		}
	})
}
