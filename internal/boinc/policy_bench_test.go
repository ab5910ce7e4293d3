package boinc

import (
	"fmt"
	"testing"
)

// BenchmarkRequestWork pins the assignment hot path at fleet scale: a
// 100k-workunit backlog with a 50-client pool, one sub-benchmark per
// registered policy, plus the default paper policy at 1k and 10k so the
// flat line is visible. Each iteration is one client work fetch; failed
// completions recycle the issued workunits so the backlog stays at
// steady state. Class-scored policies (paper, fifo) select through the
// queue's bucket index and cost O(distinct input lists), whatever the
// backlog; random and reliability-weighted are handed the full view and
// stay O(backlog).
// TestAllocationPins holds paper's allocs/op at 100k through the same
// loop.
func BenchmarkRequestWork(b *testing.B) {
	run := func(name, policy string, backlog int) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			benchRequestWork(b, b.N, policy, backlog)
		})
	}
	for _, name := range PolicyNames() {
		run(name, name, 100_000)
	}
	run("paper@10k", "paper", 10_000)
	run("paper@1k", "paper", 1_000)
}

// benchRequestWork runs n work fetches against a backlog of the given
// size under the named policy.
func benchRequestWork(b benchTB, n int, name string, backlog int) {
	const (
		clients = 50
		slots   = 8
	)
	// Client IDs are preformatted so the timed loop measures the
	// scheduler, not fmt.
	ids := make([]string, clients)
	for c := range ids {
		ids[c] = fmt.Sprintf("client-%02d", c)
	}
	p, err := NewPolicy(name)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultSchedulerConfig()
	cfg.DefaultMaxErrors = 1 << 30
	cfg.ReliabilityFloor = 0 // keep every candidate eligible at steady state
	cfg.Seed = 11
	s := NewScheduler(cfg)
	s.SetPolicy(p)
	for i := 0; i < backlog; i++ {
		s.AddWorkunit(Workunit{
			Name:       fmt.Sprintf("wu%06d", i),
			InputFiles: []string{fmt.Sprintf("shard_%03d", i%200), "model.json"},
		})
	}
	// Warm some sticky caches so CacheScore differentiates.
	for c := 0; c < clients; c++ {
		s.NoteCached(ids[c], fmt.Sprintf("shard_%03d", (c*7)%200))
	}
	now := 0.0
	b.ResetTimer()
	for i := 0; i < n; i++ {
		now += 0.5
		asns := s.RequestWork(ids[i%clients], now, slots)
		b.StopTimer()
		for _, a := range asns {
			// Invalid completion requeues the workunit, keeping
			// the backlog size constant across iterations.
			if _, _, err := s.CompleteResult(a.ResultID, false, now); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}
