package live

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/vcsim"
)

// assignmentWatch records every assignment the scheduler hands out so
// the test can prove a detach/rejoin cycle never double-issues a result
// copy and that the rejoined member actually resumes taking work.
type assignmentWatch struct {
	mu       sync.Mutex
	byResult map[int64]int
	byClient map[string]int
	dups     []int64
}

func (w *assignmentWatch) OnSchedEvent(e boinc.SchedEvent) {
	if e.Kind != boinc.EvAssigned {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.byResult[e.ResultID]++
	if w.byResult[e.ResultID] > 1 {
		w.dups = append(w.dups, e.ResultID)
	}
	w.byClient[e.Client]++
}

func (w *assignmentWatch) clientCount(id string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.byClient[id]
}

// TestFleetRejoinUnderLoad detaches a member while training traffic is
// live on a striped scheduler, then rejoins it mid-run: the member's
// blob cache must survive departure (warm rejoin), the revived client
// must resume taking assignments, and no result copy may ever be issued
// twice — the sharded scheduler's core correctness claim under churn.
func TestFleetRejoinUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second real-HTTP training run")
	}
	cfg := tinyFleetConfig(t, 3)
	cfg.Server.Job.MaxEpochs = 5
	cfg.Blobs = true
	// Pace subtasks (~0.5s wall each) so training outlives the
	// detach/rejoin churn instead of draining in one burst.
	cfg.BaseSubtaskSeconds = 300
	sched := boinc.DefaultSchedulerConfig()
	sched.Shards = 4
	cfg.Server.Scheduler = &sched
	f, err := StartFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	watch := &assignmentWatch{byResult: make(map[int64]int), byClient: make(map[string]int)}
	f.Server().D.Server().Scheduler(func(s *boinc.Scheduler) { s.AddSink(watch) })

	victim := f.ActiveClients()[0]
	var cacheDir string
	f.mu.Lock()
	for _, m := range f.members {
		if m.id == victim {
			cacheDir = m.cacheDir
		}
	}
	f.mu.Unlock()
	if cacheDir == "" {
		t.Fatalf("member %s has no blob cache dir with Blobs on", victim)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	type waitOut struct {
		res *vcsim.Result
		err error
	}
	resCh := make(chan waitOut, 1)
	go func() {
		res, err := f.Wait(ctx)
		resCh <- waitOut{res, err}
	}()

	time.Sleep(600 * time.Millisecond) // let load build before the churn
	if !f.DetachClient(victim) {
		t.Fatalf("DetachClient(%s) failed", victim)
	}
	time.Sleep(600 * time.Millisecond)
	// The warm-cache contract: departure must not clear the on-disk
	// digest cache the member accumulated.
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatalf("blob cache dir gone after detach: %v", err)
	}
	cachedAtDetach := len(entries)
	assignsBefore := watch.clientCount(victim)
	doneBeforeRejoin := f.Server().D.Server().Done()
	if !f.RejoinClient(victim) {
		t.Fatalf("RejoinClient(%s) failed", victim)
	}

	out := <-resCh
	if out.err != nil {
		t.Fatal(out.err)
	}
	watch.mu.Lock()
	dups := append([]int64(nil), watch.dups...)
	watch.mu.Unlock()
	if len(dups) > 0 {
		t.Fatalf("result copies issued twice across detach/rejoin: %v", dups)
	}
	if cachedAtDetach == 0 {
		t.Errorf("detached member's blob cache was empty — warm-rejoin path not exercised")
	}
	if !doneBeforeRejoin {
		if after := watch.clientCount(victim); after <= assignsBefore {
			t.Errorf("rejoined client took no new work: %d assignments before, %d after", assignsBefore, after)
		}
	}
	for _, cs := range f.Server().D.Server().ClientSummaries() {
		if cs.ID == victim && cs.InFlight != 0 {
			t.Errorf("rejoined client still holds %d in-flight results after completion", cs.InFlight)
		}
	}
	if out.res.BlobCacheHits == 0 {
		t.Errorf("no blob cache hits recorded — caches never warmed")
	}
	if len(out.res.Curve.Points) != 5 {
		t.Errorf("epochs = %d, want 5 (training did not survive the churn)", len(out.res.Curve.Points))
	}
}
