package bench

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// benchTB is what a pinned loop drives: the benchmark passes its
// *testing.B, TestAllocationPins an allocMeter.
type benchTB interface {
	testing.TB
	ResetTimer()
	SetBytes(int64)
}

// allocMeter counts what *testing.B's timer counts under -benchmem: the
// mallocs and bytes allocated while it runs; ResetTimer zeroes them.
// internal/tensor, internal/wire and internal/boinc carry copies, as
// test files cannot be imported.
type allocMeter struct {
	*testing.T
	on             bool
	start, now     runtime.MemStats
	mallocs, bytes uint64
}

func (m *allocMeter) StartTimer() {
	if !m.on {
		runtime.ReadMemStats(&m.start)
		m.on = true
	}
}

func (m *allocMeter) StopTimer() {
	if m.on {
		runtime.ReadMemStats(&m.now)
		m.mallocs += m.now.Mallocs - m.start.Mallocs
		m.bytes += m.now.TotalAlloc - m.start.TotalAlloc
		m.on = false
	}
}

func (m *allocMeter) ResetTimer() {
	if m.on {
		runtime.ReadMemStats(&m.start)
	}
	m.mallocs, m.bytes = 0, 0
}

func (m *allocMeter) SetBytes(int64) {}

// allocsPerOp measures loop the way `go test -bench -benchtime nx
// -benchmem` does: one call at n = 1, then a GC and the call at n, whose
// allocations from its ResetTimer on are divided by n, rounding down.
func allocsPerOp(t *testing.T, n int, loop func(benchTB, int)) (allocs, bytes uint64) {
	loop(&allocMeter{T: t}, 1)
	runtime.GC()
	m := &allocMeter{T: t}
	m.StartTimer()
	loop(m, n)
	m.StopTimer()
	return m.mallocs / uint64(n), m.bytes / uint64(n)
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestAllocationPins holds the server's compute and result paths at one
// proc: the executor's subtask and the evaluator's pass over 20 calls,
// the upload → assimilate path and the Equation 1 blend over 50. An
// allocs ceiling is the pinned count plus max(2, a quarter). The two
// result paths move megabyte vectors a few allocations at a time, so one
// more copy would pass the count: their bytes are held to the pinned
// figure plus a tenth as well. The upload path was pinned at 103 allocs
// and 16 146 B/op, the blend at 16 105 B/op.
func TestAllocationPins(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation pins skip under -race: sync.Pool drops items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, p := range []struct {
		name          string
		iters         int
		loop          func(benchTB, int)
		allocs, bytes uint64 // bytes 0: not gated
	}{
		{"BenchmarkEvaluatorAccuracy", 20, evaluatorAccuracy, 153, 0},    // 123 today
		{"BenchmarkExecutorSubtask", 20, executorSubtask, 118, 0},        // 95 today
		{"BenchmarkUploadAssimilate", 50, uploadAssimilate, 128, 17_760}, // 100 and 16 088 B today
		{"BenchmarkVCASGDAssimilate", 50, vcasgdAssimilate, 3, 17_715},   // 1 and 16 121 B today
	} {
		allocs, bytes := allocsPerOp(t, p.iters, p.loop)
		if allocs > p.allocs {
			t.Errorf("%s: %d allocs/op, ceiling %d", p.name, allocs, p.allocs)
		}
		if p.bytes > 0 && bytes > p.bytes {
			t.Errorf("%s: %d B/op, ceiling %d", p.name, bytes, p.bytes)
		}
	}
}
