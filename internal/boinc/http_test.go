package boinc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// echoApp returns the concatenation of its inputs plus the payload.
func echoApp() App {
	return AppFunc(func(asn Assignment, inputs map[string][]byte) ([]byte, error) {
		var out bytes.Buffer
		for _, f := range asn.InputFiles {
			out.Write(inputs[f])
		}
		out.Write(asn.Payload)
		return out.Bytes(), nil
	})
}

func TestHTTPEndToEnd(t *testing.T) {
	var mu sync.Mutex
	assimilated := map[string][]byte{}
	srv := NewServer(DefaultSchedulerConfig(), nil, func(wu *Workunit, output []byte, _ Decoded) {
		mu.Lock()
		assimilated[wu.Name] = bytes.Clone(output)
		mu.Unlock()
	})
	srv.PutFile("shard1", []byte("DATA1:"))
	srv.PutFile("params", []byte("W:"))
	srv.AddWorkunit(Workunit{Name: "task1", InputFiles: []string{"shard1", "params"}, Payload: []byte("p1")})
	srv.AddWorkunit(Workunit{Name: "task2", InputFiles: []string{"params"}, Payload: []byte("p2")})

	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := NewClient("c1", ts.URL, 2, echoApp())
	n, err := cl.Step()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("processed %d assignments, want 2", n)
	}
	if !srv.Done() {
		t.Fatal("server not done after all uploads")
	}
	mu.Lock()
	defer mu.Unlock()
	if string(assimilated["task1"]) != "DATA1:W:p1" {
		t.Fatalf("task1 output = %q", assimilated["task1"])
	}
	if string(assimilated["task2"]) != "W:p2" {
		t.Fatalf("task2 output = %q", assimilated["task2"])
	}
	if cl.Completed != 2 || cl.Failed != 0 {
		t.Fatalf("client counters: completed=%d failed=%d", cl.Completed, cl.Failed)
	}
}

func TestHTTPStickyCacheAvoidsRedownload(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.PutFile("model", []byte("M"))
	srv.PutFile("s1", []byte("1"))
	srv.PutFile("s2", []byte("2"))
	srv.AddWorkunit(Workunit{Name: "a", InputFiles: []string{"model", "s1"}})
	srv.AddWorkunit(Workunit{Name: "b", InputFiles: []string{"model", "s2"}})

	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := NewClient("c1", ts.URL, 1, echoApp())
	if _, err := cl.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Step(); err != nil {
		t.Fatal(err)
	}
	// model downloaded once, s1 and s2 once each = 3 downloads, 1 cache hit.
	if cl.Downloads != 3 {
		t.Fatalf("Downloads = %d, want 3", cl.Downloads)
	}
	if cl.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", cl.CacheHits)
	}
}

func TestHTTPAppFailureReissues(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.AddWorkunit(Workunit{Name: "t"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	failing := AppFunc(func(Assignment, map[string][]byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	cl := NewClient("c1", ts.URL, 1, failing)
	if _, err := cl.Step(); err != nil {
		t.Fatal(err)
	}
	if cl.Failed != 1 {
		t.Fatalf("Failed = %d", cl.Failed)
	}
	srv.Scheduler(func(s *Scheduler) {
		if s.Reissued != 1 {
			t.Fatalf("Reissued = %d, want 1", s.Reissued)
		}
	})
	// A healthy client then finishes the workunit.
	cl2 := NewClient("c2", ts.URL, 1, echoApp())
	if _, err := cl2.Step(); err != nil {
		t.Fatal(err)
	}
	if !srv.Done() {
		t.Fatal("workunit not completed after reissue")
	}
}

func TestHTTPValidatorRejects(t *testing.T) {
	reject := func(wu *Workunit, output []byte) (Decoded, bool) { return nil, false }
	srv := NewServer(DefaultSchedulerConfig(), reject, nil)
	srv.AddWorkunit(Workunit{Name: "t", MaxErrors: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := NewClient("c1", ts.URL, 1, echoApp())
	cl.Step()
	cl.Step()
	srv.Scheduler(func(s *Scheduler) {
		if s.Failures != 1 {
			t.Fatalf("Failures = %d, want 1 after validator rejections", s.Failures)
		}
	})
}

func TestHTTPDownloadMissingFile(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/download?f=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPSchedulerBadRequest(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/scheduler", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/scheduler", "application/json", bytes.NewReader([]byte(`{"max_tasks":1}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing client_id: status = %d", resp.StatusCode)
	}
}

func TestHTTPUploadUnknownResult(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/upload?result=42", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPLateUploadGone(t *testing.T) {
	cfg := DefaultSchedulerConfig()
	cfg.DefaultTimeout = 0.001 // expire almost immediately
	srv := NewServer(cfg, nil, nil)
	srv.AddWorkunit(Workunit{Name: "t"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cl := NewClient("c1", ts.URL, 1, echoApp())
	asns, err := cl.RequestWork(1)
	if err != nil || len(asns) != 1 {
		t.Fatalf("asns=%v err=%v", asns, err)
	}
	time.Sleep(5 * time.Millisecond)
	srv.Done() // trigger a timeout sweep
	url := fmt.Sprintf("%s/upload?result=%d", ts.URL, asns[0].ResultID)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader([]byte("late")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("late upload status = %d, want 410", resp.StatusCode)
	}
}

func TestHTTPStatusEndpoint(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.AddWorkunit(Workunit{Name: "t"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusReply
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Pending != 1 || st.Done {
		t.Fatalf("status = %+v", st)
	}
}

func TestHTTPClientLoopDrainsAllWork(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	for i := 0; i < 20; i++ {
		srv.AddWorkunit(Workunit{Name: fmt.Sprintf("t%d", i)})
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		cl := NewClient(fmt.Sprintf("c%d", i), ts.URL, 2, echoApp())
		cl.Poll = time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Loop(ctx)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for !srv.Done() {
		if time.Now().After(deadline) {
			t.Fatal("work not drained within deadline")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	wg.Wait()
}

func TestClientInvalidate(t *testing.T) {
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.PutFile("f", []byte("v1"))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := NewClient("c1", ts.URL, 1, echoApp())
	d1, err := cl.Download("f")
	if err != nil {
		t.Fatal(err)
	}
	srv.PutFile("f", []byte("v2"))
	d2, _ := cl.Download("f") // cached
	if string(d2) != string(d1) {
		t.Fatal("expected cached value before Invalidate")
	}
	cl.Invalidate("f")
	d3, _ := cl.Download("f")
	if string(d3) != "v2" {
		t.Fatalf("after Invalidate got %q", d3)
	}
}

// TestHTTPTrafficAndControlsConcurrent drives downloads, work requests
// and uploads from several clients at once while controls are set,
// read and cleared and the traffic totals polled: the request path shares
// the server lock and counts bytes atomically, so the totals must come
// out exact and the race detector must stay quiet.
func TestHTTPTrafficAndControlsConcurrent(t *testing.T) {
	const clients, perClient = 6, 40
	srv := NewServer(DefaultSchedulerConfig(), nil, nil)
	srv.PutFile("model", []byte("0123456789"))
	for i := 0; i < clients*perClient; i++ {
		srv.AddWorkunit(Workunit{Name: fmt.Sprintf("wu%d", i), InputFiles: []string{"model"}})
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stop := make(chan struct{})
	var tweaker sync.WaitGroup
	tweaker.Add(1)
	go func() {
		defer tweaker.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("c%d", i%clients)
			srv.SetClientControl(id, ClientControl{SlowFactor: 1})
			srv.ClientControlFor(id)
			srv.SetClientControl(id, ClientControl{})
			srv.Traffic()
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := NewClient(fmt.Sprintf("c%d", c), ts.URL, 1, nil)
			for i := 0; i < perClient; i++ {
				if _, err := cl.Download("model"); err != nil {
					t.Error(err)
					return
				}
				asn, err := cl.RequestWork(1)
				if err != nil || len(asn) != 1 {
					t.Errorf("client %d: %d assignments, err %v", c, len(asn), err)
					return
				}
				if err := cl.Upload(asn[0].ResultID, []byte("abc"), nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	tweaker.Wait()
	// Each client downloads the sticky file once; every upload is 3 bytes.
	if down, up := srv.Traffic(); down != 10*clients || up != 3*clients*perClient {
		t.Fatalf("Traffic() = %d down, %d up; want %d, %d", down, up, 10*clients, 3*clients*perClient)
	}
	if !srv.Done() {
		t.Fatal("server not done")
	}
}
