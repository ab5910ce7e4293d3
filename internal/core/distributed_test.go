package core

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/store"
)

// distTestJob builds a small distributed job: two parameter servers over
// a strong store.
func distTestJob(t *testing.T, subtasks, epochs int) (*Distributed, JobConfig) {
	t.Helper()
	corpus := testCorpus(t)
	spec := SmallCNNSpec(3, 8, 8, 10)
	builder, err := spec.Builder()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testJobConfig()
	cfg.Builder = builder
	cfg.Subtasks = subtasks
	cfg.MaxEpochs = epochs
	cfg.ValSubset = 60
	d, err := NewDistributed(cfg, spec, corpus, 2, store.NewStrong())
	if err != nil {
		t.Fatal(err)
	}
	return d, cfg
}

// distTestSetup builds a small distributed job and returns it with its
// HTTP test server.
func distTestSetup(t *testing.T, epochs int) (*Distributed, *httptest.Server, JobConfig) {
	t.Helper()
	d, cfg := distTestJob(t, 5, epochs)
	ts := httptest.NewServer(d.Server())
	t.Cleanup(ts.Close)
	return d, ts, cfg
}

// TestDistributedEndToEnd drives the full networked pipeline: HTTP
// scheduler, file downloads with sticky caching, client-side training,
// uploads, validation, VC-ASGD assimilation, multi-epoch generation and
// the stopping criterion.
func TestDistributedEndToEnd(t *testing.T) {
	d, ts, cfg := distTestSetup(t, 3)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	clients := []*boinc.Client{
		boinc.NewClient("c1", ts.URL, 2, NewTrainingApp(cfg)),
		boinc.NewClient("c2", ts.URL, 2, NewTrainingApp(cfg)),
	}
	for _, cl := range clients {
		cl.Poll = 2 * time.Millisecond
		wg.Add(1)
		go func(cl *boinc.Client) {
			defer wg.Done()
			cl.Loop(ctx)
		}(cl)
	}
	select {
	case <-d.Done():
	case <-ctx.Done():
		t.Fatal("distributed job did not finish in time")
	}
	cancel()
	wg.Wait()
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) != cfg.MaxEpochs {
		t.Fatalf("curve has %d points, want %d", len(res.Curve.Points), cfg.MaxEpochs)
	}
	if len(res.FinalParams) == 0 {
		t.Fatal("no final parameters recorded")
	}
	// The sticky cache must have avoided re-downloading model and shards:
	// epoch 2+ only needs the new parameter file.
	totalHits := clients[0].CacheHits + clients[1].CacheHits
	if totalHits == 0 {
		t.Fatal("sticky-file cache never hit across epochs")
	}
}

func TestDistributedSurvivesFlakyClient(t *testing.T) {
	d, ts, cfg := distTestSetup(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A client whose app fails the first few executions, then recovers —
	// the scheduler must reissue and training must still complete.
	var mu sync.Mutex
	failures := 3
	inner := NewTrainingApp(cfg)
	flakyApp := boinc.AppFunc(func(asn boinc.Assignment, inputs map[string][]byte) ([]byte, error) {
		mu.Lock()
		if failures > 0 {
			failures--
			mu.Unlock()
			return nil, errors.New("simulated preemption")
		}
		mu.Unlock()
		return inner.Run(asn, inputs)
	})
	var wg sync.WaitGroup
	for i, app := range []boinc.App{flakyApp, NewTrainingApp(cfg)} {
		cl := boinc.NewClient([]string{"flaky", "steady"}[i], ts.URL, 2, app)
		cl.Poll = 2 * time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Loop(ctx)
		}()
	}
	select {
	case <-d.Done():
	case <-ctx.Done():
		t.Fatal("job did not survive flaky client")
	}
	cancel()
	wg.Wait()
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) != 2 {
		t.Fatalf("epochs completed = %d, want 2", len(res.Curve.Points))
	}
	d.Server().Scheduler(func(s *boinc.Scheduler) {
		if s.Reissued < 3 {
			t.Fatalf("Reissued = %d, want >= 3", s.Reissued)
		}
	})
}

func TestDistributedValidatorRejectsGarbage(t *testing.T) {
	d, ts, cfg := distTestSetup(t, 1)
	_ = cfg
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// One malicious client uploads garbage bytes; one honest client.
	garbageApp := boinc.AppFunc(func(boinc.Assignment, map[string][]byte) ([]byte, error) {
		return []byte("not parameters"), nil
	})
	var wg sync.WaitGroup
	for i, app := range []boinc.App{garbageApp, NewTrainingApp(cfg)} {
		cl := boinc.NewClient([]string{"evil", "honest"}[i], ts.URL, 1, app)
		cl.Poll = 2 * time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Loop(ctx)
		}()
	}
	select {
	case <-d.Done():
	case <-ctx.Done():
		t.Fatal("job did not complete despite honest client")
	}
	cancel()
	wg.Wait()
	if _, err := d.Result(); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedInvalidConfig(t *testing.T) {
	corpus := testCorpus(t)
	spec := SmallCNNSpec(3, 8, 8, 10)
	cfg := testJobConfig()
	cfg.MaxEpochs = 0
	if _, err := NewDistributed(cfg, spec, corpus, 1, nil); err == nil {
		t.Fatal("invalid config must error")
	}
}
