package boinc

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcdl/internal/obs"
)

// TestAdmissionShedsWith429 pins the wire contract of the backpressure
// gate: once MaxConcurrent requests are in the handlers and MaxQueue
// more are waiting, the next scheduler request is shed with 429 and a
// Retry-After advisory — and the shed shows up in both ShedCount and
// the vcdl_sched_shed_total metric.
func TestAdmissionShedsWith429(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	// A validating upload blocks in the handler while holding the one
	// admission slot, making the overload window deterministic.
	validate := func(wu *Workunit, output []byte) (Decoded, bool) {
		started <- struct{}{}
		<-release
		return nil, true
	}
	srv := NewServer(DefaultSchedulerConfig(), validate, nil)
	srv.EnableAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 0, RetryAfter: 250 * time.Millisecond})
	reg := obs.NewRegistry()
	srv.EnableMetrics(reg)
	srv.AddWorkunit(Workunit{Name: "wu-0"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := NewClient("holder", ts.URL, 1, nil)
	asns, err := cl.RequestWork(1)
	if err != nil || len(asns) != 1 {
		t.Fatalf("seed assignment: %v (%d)", err, len(asns))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := cl.Upload(asns[0].ResultID, []byte("ok"), nil); err != nil {
			t.Errorf("blocked upload: %v", err)
		}
	}()
	<-started // the slot is now held inside the upload handler

	// With the only slot busy and no queue, a work request must shed.
	other := NewClient("shed-me", ts.URL, 1, nil)
	_, err = other.RequestWork(1)
	ra, ok := err.(*RetryAfterError)
	if !ok {
		t.Fatalf("overloaded RequestWork error = %v, want *RetryAfterError", err)
	}
	if ra.After != 250*time.Millisecond {
		t.Fatalf("Retry-After = %v, want 250ms", ra.After)
	}
	close(release)
	wg.Wait()
	if got := srv.ShedCount(); got != 1 {
		t.Fatalf("ShedCount = %d, want 1", got)
	}
	if got := reg.CounterValue(MetricShed); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricShed, got)
	}
	// The gate never touches download/status: a file fetch goes through
	// even while shedding.
	srv.PutFile("f", []byte("data"))
	if _, err := other.Download("f"); err != nil {
		t.Fatalf("download during overload: %v", err)
	}
}

// TestAdmissionQueueAdmits checks the bounded-queue half: a request
// beyond MaxConcurrent but within MaxQueue waits for a slot instead of
// shedding, and completes once the slot frees.
func TestAdmissionQueueAdmits(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	validate := func(wu *Workunit, output []byte) (Decoded, bool) {
		started <- struct{}{}
		<-release
		return nil, true
	}
	srv := NewServer(DefaultSchedulerConfig(), validate, nil)
	srv.EnableAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 4})
	srv.AddWorkunit(Workunit{Name: "wu-0"})
	srv.AddWorkunit(Workunit{Name: "wu-1"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := NewClient("holder", ts.URL, 1, nil)
	asns, err := cl.RequestWork(1)
	if err != nil || len(asns) != 1 {
		t.Fatalf("seed assignment: %v (%d)", err, len(asns))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.Upload(asns[0].ResultID, []byte("ok"), nil)
	}()
	<-started

	// This request queues behind the blocked upload; free the slot
	// shortly after and it must succeed — no 429.
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	other := NewClient("queued", ts.URL, 1, nil)
	got, err := other.RequestWork(1)
	if err != nil {
		t.Fatalf("queued RequestWork: %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("queued RequestWork returned %d assignments, want 1", len(got))
	}
	wg.Wait()
	if n := srv.ShedCount(); n != 0 {
		t.Fatalf("ShedCount = %d, want 0 (queue admitted)", n)
	}
}

// TestClientLoopHonorsRetryAfter pins the client half of backpressure:
// a Loop facing a shedding server spaces its polls by the advertised
// Retry-After instead of hammering at the poll interval.
func TestClientLoopHonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/scheduler" {
			hits.Add(1)
			w.Header().Set("Retry-After", "0.2")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		http.NotFound(w, r)
	}))
	defer ts.Close()

	cl := NewClient("backoff", ts.URL, 1, nil)
	cl.Poll = time.Millisecond // without backoff this would poll ~500x
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	err := cl.Loop(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Loop = %v, want context.DeadlineExceeded", err)
	}
	// 500ms of 200ms+jitter backoffs: a handful of polls at most. Leave
	// wide slack for scheduler hiccups; the failure mode being guarded
	// (ignoring Retry-After) produces hundreds.
	if n := hits.Load(); n < 2 || n > 10 {
		t.Fatalf("shedding server polled %d times in 500ms with Retry-After 200ms, want 2..10", n)
	}
}

// TestUploadRetriesAfterShed checks that a shed upload (finished work
// is too valuable to drop) retries after the advisory and lands once
// the server admits again.
func TestUploadRetriesAfterShed(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.AddWorkunit(Workunit{Name: "wu-0"})
	var shed atomic.Bool
	inner := httptest.NewServer(srv)
	defer inner.Close()
	// Front the real server with a proxy that sheds the first upload
	// attempt, so the retry path is exercised deterministically.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/upload" && shed.CompareAndSwap(false, true) {
			w.Header().Set("Retry-After", "0.01")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		req, err := http.NewRequest(r.Method, inner.URL+r.URL.RequestURI(), r.Body)
		if err != nil {
			t.Errorf("proxy: %v", err)
			return
		}
		req.Header = r.Header
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("proxy: %v", err)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				break
			}
		}
	}))
	defer proxy.Close()

	cl := NewClient("uploader", proxy.URL, 1, nil)
	asns, err := cl.RequestWork(1)
	if err != nil || len(asns) != 1 {
		t.Fatalf("RequestWork: %v (%d)", err, len(asns))
	}
	if err := cl.Upload(asns[0].ResultID, []byte("ok"), nil); err != nil {
		t.Fatalf("Upload after shed: %v", err)
	}
	if !shed.Load() {
		t.Fatal("proxy never shed the upload — test exercised nothing")
	}
	done := false
	srv.Scheduler(func(s *Scheduler) { done = done || s.Done() })
	if !done {
		t.Fatal("workunit not completed after retried upload")
	}
}

// TestRetryAfterParse covers the header parsing corner cases the shed
// path relies on.
func TestRetryAfterParse(t *testing.T) {
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"1", time.Second},
		{"0.25", 250 * time.Millisecond},
		{"", 0},
		{"soon", 0},
		{"-3", 0},
	}
	for _, tc := range cases {
		resp := &http.Response{Header: http.Header{}}
		if tc.header != "" {
			resp.Header.Set("Retry-After", tc.header)
		}
		if got := parseRetryAfter(resp); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestAdmissionConfigOff confirms the zero value disables the gate
// entirely: no slot accounting, no shed, requests flow.
func TestAdmissionConfigOff(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.EnableAdmission(AdmissionConfig{}) // MaxConcurrent 0 = off
	for i := 0; i < 4; i++ {
		srv.AddWorkunit(Workunit{Name: fmt.Sprintf("wu-%d", i)})
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := NewClient("free", ts.URL, 4, nil)
	asns, err := cl.RequestWork(4)
	if err != nil || len(asns) != 4 {
		t.Fatalf("RequestWork with admission off: %v (%d)", err, len(asns))
	}
	if n := srv.ShedCount(); n != 0 {
		t.Fatalf("ShedCount = %d with admission off", n)
	}
}
