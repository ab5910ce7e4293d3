package core

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"vcdl/internal/data"
	"vcdl/internal/nn"
)

func backendFixture(t testing.TB) (JobConfig, *data.Dataset, []float64) {
	t.Helper()
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 60, 10, 10
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultJobConfig(nn.SmallCNNBuilder(dc.C, dc.H, dc.W, dc.Classes))
	cfg.BatchSize = 10
	cfg.LocalPasses = 2
	net := nn.NewNetwork(cfg.Builder)
	net.Init(rand.New(rand.NewSource(3)))
	return cfg, corpus.Train, net.Parameters()
}

// TestBackendSpecParsing pins the spec grammar: bare "cached" is the
// pooled memo, "real+cached" the inline one, and every canonical name
// parses back to itself and to the same kind of backend.
func TestBackendSpecParsing(t *testing.T) {
	valid := []struct {
		spec, name string
		pooled     bool
	}{
		{"", "real", false},
		{"real", "real", false},
		{"cached", "parallel+cached", true},
		{"real+cached", "real+cached", false},
		{"cached+real", "real+cached", false},
		{"parallel", "parallel", true},
		{"parallel+cached", "parallel+cached", true},
		{"cached+parallel", "parallel+cached", true},
		{"surrogate", "surrogate", false},
		{"surrogate+cached", "surrogate+cached", false},
	}
	cfg, _, _ := backendFixture(t)
	for _, v := range valid {
		if err := ValidateBackendSpec(v.spec); err != nil {
			t.Errorf("ValidateBackendSpec(%q): %v", v.spec, err)
			continue
		}
		if got := BackendSpecName(v.spec); got != v.name {
			t.Errorf("BackendSpecName(%q) = %q, want %q", v.spec, got, v.name)
		}
		if got := BackendSpecName(v.name); got != v.name {
			t.Errorf("canonical name %q re-canonicalizes to %q", v.name, got)
		}
		// The spec and its canonical name build the same backend.
		for _, spec := range []string{v.spec, v.name} {
			b, err := NewBackend(spec, cfg, 2)
			if err != nil {
				t.Errorf("NewBackend(%q): %v", spec, err)
				continue
			}
			if b.Name() != v.name {
				t.Errorf("NewBackend(%q).Name() = %q, want %q", spec, b.Name(), v.name)
			}
			if s := b.Stats(); s.Backend != v.name || (s.Workers == 2) != v.pooled {
				t.Errorf("NewBackend(%q).Stats() = %+v, want backend %q, pooled %v", spec, s, v.name, v.pooled)
			}
			if p := PoolOf(b); (p != nil) != v.pooled || p != nil && p.Size() != 2 {
				t.Errorf("PoolOf(NewBackend(%q)) = %v, want a pool of 2: %v", spec, p, v.pooled)
			}
			b.Close()
		}
	}
	for _, name := range BackendNames() {
		if err := ValidateBackendSpec(name); err != nil {
			t.Errorf("BackendNames lists %q: %v", name, err)
		}
	}
	for _, spec := range []string{"bogus", "real+parallel", "cached+cached", "parallel+bogus"} {
		if err := ValidateBackendSpec(spec); err == nil {
			t.Errorf("ValidateBackendSpec(%q) accepted an invalid spec", spec)
		}
		if _, err := NewBackend(spec, cfg, 0); err == nil {
			t.Errorf("NewBackend(%q) accepted an invalid spec", spec)
		}
	}
}

// TestPoolJobs checks the worker pool's job path: jobs run, no compute
// counter sees them, and Close runs the jobs still queued before it
// returns.
func TestPoolJobs(t *testing.T) {
	cfg, _, _ := backendFixture(t)
	b, err := NewBackend("cached", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pool := PoolOf(b)
	var ran atomic.Int32
	var dones []<-chan struct{}
	for i := 0; i < 5; i++ {
		dones = append(dones, pool.Go(func() { ran.Add(1) }))
	}
	for _, d := range dones {
		<-d
	}
	if s := b.Stats(); s.Launched != 0 || s.Computed != 0 || s.CacheHits != 0 || s.CacheMisses != 0 || s.MaxInFlight != 0 {
		t.Errorf("jobs reached the compute counters: %+v", s)
	}
	for i := 0; i < 3; i++ {
		pool.Go(func() { ran.Add(1) })
	}
	b.Close()
	if got := ran.Load(); got != 8 {
		t.Errorf("%d of 8 jobs ran by Close", got)
	}
}

// TestBackendsComputeIdenticalUpdates pins the purity argument: real,
// parallel and both memo forms (at several pool sizes) return
// byte-identical parameter updates for the same (params, shard, seed).
func TestBackendsComputeIdenticalUpdates(t *testing.T) {
	cfg, shard, params := backendFixture(t)
	ref, refStats := NewExecutor(cfg).Run(params, shard, 99)

	for _, spec := range []string{"real", "cached", "real+cached", "parallel", "parallel+cached"} {
		for _, workers := range []int{1, 2, 8} {
			b, err := NewBackend(spec, cfg, workers)
			if err != nil {
				t.Fatal(err)
			}
			task := Subtask{Epoch: 1, Shard: 0, Seed: 99, Params: params, Data: shard}
			got, gotStats := b.Launch(task).Wait()
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s workers=%d: params diverged from the executor", spec, workers)
			}
			if gotStats != refStats {
				t.Errorf("%s workers=%d: stats %+v != %+v", spec, workers, gotStats, refStats)
			}
			b.Close()
		}
	}
}

// TestCachedBackendMemoizes checks replica launches share one execution
// and that Retire evicts old epochs, for the pooled and the inline memo.
func TestCachedBackendMemoizes(t *testing.T) {
	cfg, shard, params := backendFixture(t)
	for _, spec := range []string{"cached", "real+cached"} {
		b, err := NewBackend(spec, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		task := Subtask{Epoch: 1, Shard: 3, Seed: 7, Params: params, Data: shard}
		f1 := b.Launch(task)
		f2 := b.Launch(task)
		p1, _ := f1.Wait()
		p2, _ := f2.Wait()
		if &p1[0] != &p2[0] {
			t.Errorf("%s: replica launches did not share the memoized result", spec)
		}
		s := b.Stats()
		if s.Launched != 2 || s.CacheHits != 1 || s.CacheMisses != 1 || s.Computed != 1 {
			t.Errorf("%s: stats after replica pair: %+v", spec, s)
		}

		// A different shard misses; after Retire the epoch recomputes.
		b.Launch(Subtask{Epoch: 1, Shard: 4, Seed: 8, Params: params, Data: shard}).Wait()
		b.Retire(2)
		b.Launch(task).Wait()
		s = b.Stats()
		if s.CacheMisses != 3 || s.Computed != 3 {
			t.Errorf("%s: stats after retire: %+v", spec, s)
		}
		b.Close()
	}
}

// TestParallelBackendOverlap checks Launch returns before the result is
// awaited and that Close drains never-awaited futures.
func TestParallelBackendOverlap(t *testing.T) {
	cfg, shard, params := backendFixture(t)
	b, err := NewBackend("parallel", cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]Future, 5)
	for i := range futs {
		futs[i] = b.Launch(Subtask{Epoch: 1, Shard: i, Seed: int64(i), Params: params, Data: shard})
	}
	s := b.Stats()
	if s.MaxInFlight != 5 || s.Launched != 5 {
		t.Errorf("in-flight telemetry before await: %+v", s)
	}
	// Await only some; Close must still drain the rest.
	futs[0].Wait()
	futs[3].Wait()
	b.Close()
	s = b.Stats()
	if s.Computed != 5 || s.Workers != 2 {
		t.Errorf("stats after close: %+v", s)
	}
}

// TestSurrogateCheaper checks the surrogate kernel does meaningfully
// fewer minibatch steps than the real kernel while still training.
func TestSurrogateCheaper(t *testing.T) {
	cfg, shard, params := backendFixture(t)
	_, realStats := NewExecutor(cfg).Run(params, shard, 5)
	b, err := NewBackend("surrogate", cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	upd, surStats := b.Launch(Subtask{Epoch: 1, Shard: 0, Seed: 5, Params: params, Data: shard}).Wait()
	if surStats.Samples >= realStats.Samples {
		t.Errorf("surrogate processed %d samples, real %d — no saving", surStats.Samples, realStats.Samples)
	}
	if surStats.Batches < 1 {
		t.Error("surrogate took no training step")
	}
	if reflect.DeepEqual(upd, params) {
		t.Error("surrogate returned the input parameters unchanged")
	}
}

func TestRegisterBackendGuards(t *testing.T) {
	for name, f := range map[string]BackendFactory{
		"":       func(JobConfig, int) Backend { return nil },
		"cached": func(JobConfig, int) Backend { return nil },
		"real":   func(JobConfig, int) Backend { return nil },
		"ok":     nil,
	} {
		name, f := name, f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterBackend(%q) did not panic", name)
				}
			}()
			RegisterBackend(name, f)
		}()
	}
}
