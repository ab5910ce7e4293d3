package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"vcdl/internal/core"
	"vcdl/internal/vcsim"
)

// sweepFixture builds a mixed batch of specs sharing one read-only
// corpus: different seeds, topologies and fault models.
func sweepFixture(t testing.TB) []*Spec {
	t.Helper()
	job, corpus := quickWorkload(t, 1, 2)
	var specs []*Spec
	add := func(opts ...Option) {
		spec, err := New(job, corpus, opts...)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	add(Topology(1, 2, 2), Seed(1))
	add(Topology(2, 3, 2), Seed(2))
	add(Topology(1, 3, 4), Seed(3), Preempt(0.2), Timeout(240))
	add(Topology(2, 2, 2), Seed(4), NoSticky())
	return specs
}

// marshal renders a Result to bytes for exact comparison.
func marshal(t testing.TB, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSweepDeterminism is the sweep runner's core contract: for the same
// specs, Sweep with 1, 2 and 8 workers produces byte-identical Results
// to serial vcsim.Run — the worker count never leaks into the outcome.
// Run under -race this also proves the runs share no mutable state.
func TestSweepDeterminism(t *testing.T) {
	specs := sweepFixture(t)

	// Serial ground truth through the simulator's own entry point.
	var want [][]byte
	for _, spec := range specs {
		res, err := vcsim.Run(spec.Config())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, marshal(t, res))
	}

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			results, err := Sweep(context.Background(), specs, Workers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(specs) {
				t.Fatalf("got %d results for %d specs", len(results), len(specs))
			}
			for i, res := range results {
				if got := marshal(t, res); !bytes.Equal(got, want[i]) {
					t.Errorf("run #%d differs from serial vcsim.Run:\nserial: %s\nsweep:  %s", i, want[i], got)
				}
			}
		})
	}
}

func TestSweepReturnsInputOrder(t *testing.T) {
	job, corpus := quickWorkload(t, 1, 1)
	var specs []*Spec
	for i := 0; i < 6; i++ {
		spec, err := New(job, corpus, Topology(1, 2, 2), Seed(int64(i)), Name(fmt.Sprintf("run-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	results, err := Sweep(context.Background(), specs, Workers(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if want := fmt.Sprintf("run-%d", i); res.Name != want {
			t.Errorf("results[%d].Name = %q, want %q", i, res.Name, want)
		}
	}
}

func TestSweepEmptyAndNil(t *testing.T) {
	results, err := Sweep(context.Background(), nil)
	if err != nil || results != nil {
		t.Fatalf("empty sweep: %v, %v", results, err)
	}
	if _, err := Sweep(context.Background(), []*Spec{nil}); err == nil {
		t.Fatal("nil spec accepted")
	}
}

func TestSweepCancelledContext(t *testing.T) {
	specs := sweepFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Sweep(ctx, specs, Workers(2))
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The result slice still has one slot per spec, and with a
	// pre-cancelled context no run may have been handed out: every slot
	// must be nil.
	if len(results) != len(specs) {
		t.Fatalf("got %d slots, want %d", len(results), len(specs))
	}
	for i, res := range results {
		if res != nil {
			t.Errorf("slot %d ran despite pre-cancelled context", i)
		}
	}
}

// TestSweepSharesComputeBudget pins the one parallelism budget: a cell
// that left its compute pool unsized gets GOMAXPROCS / sweep-workers
// pool workers (at least one), an explicit WithComputeWorkers always
// wins, and neither size changes anything but the Compute telemetry.
func TestSweepSharesComputeBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	job, corpus := quickWorkload(t, 1, 2)
	var specs []*Spec
	for i := 0; i < 4; i++ {
		opts := []Option{Topology(1, 3, 2), Replicate(2), Seed(int64(i + 1)), WithBackend("cached")}
		if i == 3 {
			opts = append(opts, WithComputeWorkers(3))
		}
		spec, err := New(job, corpus, opts...)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	stripped := func(r *Result) []byte {
		c := *r
		c.Compute = core.BackendStats{}
		return marshal(t, &c)
	}
	var want [][]byte
	for _, spec := range specs {
		res, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, stripped(res))
	}
	for sweepWorkers, unsized := range map[int]int{1: 4, 2: 2, 3: 1, 4: 1} {
		results, err := Sweep(context.Background(), specs, Workers(sweepWorkers))
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			wantPool := unsized
			if i == 3 {
				wantPool = 3
			}
			if res.Compute.Workers != wantPool {
				t.Errorf("sweep workers=%d run #%d: pool of %d workers, want %d", sweepWorkers, i, res.Compute.Workers, wantPool)
			}
			if !bytes.Equal(stripped(res), want[i]) {
				t.Errorf("sweep workers=%d run #%d differs from Run", sweepWorkers, i)
			}
		}
	}
}
