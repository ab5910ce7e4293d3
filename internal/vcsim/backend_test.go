package vcsim

import (
	"fmt"
	"reflect"
	"testing"

	"vcdl/internal/boinc"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/nn"
)

// backendQuickConfig builds the small fast workload (the scenario
// engine's "quick" fleet) for backend-equivalence runs.
func backendQuickConfig(t testing.TB, seed int64, epochs int) Config {
	t.Helper()
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 500, 200, 200
	dc.NoiseStd = 0.4
	dc.Seed = seed
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		t.Fatal(err)
	}
	job := core.DefaultJobConfig(nn.SmallCNNBuilder(dc.C, dc.H, dc.W, dc.Classes))
	job.Subtasks = 10
	job.MaxEpochs = epochs
	job.BatchSize = 25
	job.LocalPasses = 2
	job.LearningRate = 0.01
	job.ValSubset = 100
	job.Seed = seed
	return DefaultConfig(job, corpus, 2, 4, 2)
}

// stripCompute zeroes the one Result field that legitimately differs
// between equivalent backends (DESIGN.md §8).
func stripCompute(r *Result) Result {
	c := *r
	c.Compute = core.BackendStats{}
	return c
}

// TestBackendEquivalence is the tentpole contract: both memo forms and
// the parallel backend (pools of 1, 2 and 8 workers, exercised under
// -race by CI) produce byte-identical Results to the real backend across
// seeds, scheduling policies, preemption, and replication.
func TestBackendEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		policy      string
		preempt     float64
		replication int
	}{
		{"seed1-paper-replicated", 1, "", 0, 2},
		{"seed5-random-preempt", 5, "random", 0.25, 1},
		{"seed9-fifo-preempt-replicated", 9, "fifo", 0.1, 3},
	}
	backends := []struct {
		spec    string
		workers int
	}{
		{"real+cached", 0},
		{"cached", 1},
		{"cached", 2},
		{"cached", 8},
		{"parallel", 1},
		{"parallel", 2},
		{"parallel", 8},
		{"parallel+cached", 8},
	}
	if testing.Short() {
		cases = cases[:1]
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			build := func(backend string, workers int) Config {
				cfg := backendQuickConfig(t, tc.seed, 3)
				cfg.PreemptProb = tc.preempt
				cfg.Replication = tc.replication
				cfg.TimeoutSeconds = 600
				cfg.Backend = backend
				cfg.ComputeWorkers = workers
				if tc.policy != "" {
					p, err := boinc.NewPolicy(tc.policy)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Policy = p
				}
				return cfg
			}
			ref, err := Run(build("real", 0))
			if err != nil {
				t.Fatal(err)
			}
			want := stripCompute(ref)
			for _, b := range backends {
				label := fmt.Sprintf("%s/workers=%d", b.spec, b.workers)
				got, err := Run(build(b.spec, b.workers))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(stripCompute(got), want) {
					t.Errorf("%s: Result diverged from the real backend", label)
				}
				if got.Compute.Backend != core.BackendSpecName(b.spec) {
					t.Errorf("%s: telemetry backend %q", label, got.Compute.Backend)
				}
				if got.Compute.Launched == 0 {
					t.Errorf("%s: no launches recorded", label)
				}
			}
		})
	}
}

// TestCachedBackendDeduplicatesReplicas checks the telemetry story: with
// replication on, either memo form computes each (epoch, shard) once
// while the real backend recomputes every copy.
func TestCachedBackendDeduplicatesReplicas(t *testing.T) {
	for _, spec := range []string{"cached", "real+cached"} {
		cfg := backendQuickConfig(t, 2, 2)
		cfg.Replication = 2
		cfg.TasksPerClient = 4
		cfg.Backend = spec
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Compute
		if c.CacheHits == 0 {
			t.Fatalf("%s: replicated run recorded no cache hits: %+v", spec, c)
		}
		if c.Computed != c.CacheMisses {
			t.Errorf("%s: computed %d != misses %d", spec, c.Computed, c.CacheMisses)
		}
		if c.Computed >= c.Launched {
			t.Errorf("%s: cache saved nothing: computed %d of %d launches", spec, c.Computed, c.Launched)
		}
		wantDistinct := 2 * cfg.Job.Subtasks // epochs × shards
		if c.CacheMisses != wantDistinct {
			t.Errorf("%s: distinct computations %d, want %d", spec, c.CacheMisses, wantDistinct)
		}
	}
}

// TestSurrogateBackendKeepsTiming checks the surrogate changes accuracy
// curves but not the simulation's timing, traffic or scheduling — the
// capacity-run contract.
func TestSurrogateBackendKeepsTiming(t *testing.T) {
	cfg := backendQuickConfig(t, 3, 2)
	cfg.Backend = "real"
	ref, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = backendQuickConfig(t, 3, 2)
	cfg.Backend = "surrogate"
	sur, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sur.Hours != ref.Hours || sur.Issued != ref.Issued ||
		sur.BytesDownloaded != ref.BytesDownloaded || sur.BytesUploaded != ref.BytesUploaded {
		t.Errorf("surrogate perturbed timing/traffic: hours %v/%v issued %d/%d",
			sur.Hours, ref.Hours, sur.Issued, ref.Issued)
	}
	if reflect.DeepEqual(sur.Curve, ref.Curve) {
		t.Error("surrogate reproduced the real curve exactly — subsampling is not engaged")
	}
}

// TestBackendUnknownSpec checks bad specs fail at Start, not mid-run.
func TestBackendUnknownSpec(t *testing.T) {
	cfg := backendQuickConfig(t, 1, 2)
	cfg.Backend = "bogus"
	if _, err := Start(cfg); err == nil {
		t.Fatal("Start accepted an unknown compute backend")
	}
}
