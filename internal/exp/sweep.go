package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// SweepOption tunes one Sweep call.
type SweepOption func(*sweepConfig)

type sweepConfig struct {
	workers int
}

// Workers sets the worker-pool size. n < 1 selects the default,
// GOMAXPROCS. The pool size never changes results: runs are independent
// event loops, so the same specs produce byte-identical Results at any
// worker count (the Compute telemetry reports the pool each run got).
//
// Sweep workers and compute-backend pools draw on one budget: a run
// whose spec left the compute pool unsized (no WithComputeWorkers) gets
// max(1, GOMAXPROCS / sweep workers) pool workers instead of GOMAXPROCS,
// so W concurrent "cached" runs do not start W × GOMAXPROCS goroutines
// of math.
func Workers(n int) SweepOption {
	return func(c *sweepConfig) {
		c.workers = n
	}
}

// Sweep executes the specs on a worker pool and returns their results in
// input order. The specs may share a read-only corpus/setup — runs never
// mutate it. Each run keeps the serial determinism contract: Sweep with
// any worker count returns exactly what one-by-one Run calls would.
//
// Cancelling ctx stops handing out new runs (in-flight runs complete)
// and returns the context error; slots of runs that never started are
// nil. A failed run aborts the sweep the same way and reports the first
// error in spec order.
func Sweep(ctx context.Context, specs []*Spec, opts ...SweepOption) ([]*Result, error) {
	sc := sweepConfig{}
	for _, opt := range opts {
		opt(&sc)
	}
	if sc.workers < 1 {
		sc.workers = runtime.GOMAXPROCS(0)
	}
	if sc.workers > len(specs) {
		sc.workers = len(specs)
	}
	for i, s := range specs {
		if s == nil {
			return nil, fmt.Errorf("exp: sweep spec #%d is nil", i)
		}
	}
	if len(specs) == 0 {
		return nil, nil
	}

	computeWorkers := max(1, runtime.GOMAXPROCS(0)/sc.workers)
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	jobs := make(chan int)
	failed := make(chan struct{})
	var failOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < sc.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = run(specs[i], computeWorkers)
				if errs[i] != nil {
					failOnce.Do(func() { close(failed) })
				}
			}
		}()
	}
feed:
	for i := range specs {
		// Check cancellation/failure before offering the next run: in the
		// combined select a ready worker and a ready Done channel race
		// uniformly at random, which would keep handing out runs after
		// cancellation about half the time.
		select {
		case <-ctx.Done():
			break feed
		case <-failed:
			break feed
		default:
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		case <-failed:
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return results, err
	}
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("exp: sweep run #%d (%s): %w", i, specName(specs[i]), err)
		}
	}
	return results, nil
}

// specName labels a spec for sweep errors, matching the name its Result
// would carry.
func specName(s *Spec) string {
	cfg := s.cfg
	cfg.Name = s.name
	return cfg.DisplayName()
}
