package tensor

import (
	"runtime"
	"testing"
)

// benchTB is what a pinned loop drives: the benchmark passes its
// *testing.B, TestAllocationPins an allocMeter.
type benchTB interface {
	testing.TB
	ResetTimer()
}

// allocMeter counts what *testing.B's timer counts under -benchmem: the
// mallocs and bytes allocated while it runs; ResetTimer zeroes them.
// internal/wire, internal/boinc and the root package carry copies, as
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

// TestAllocationPins holds every kernel benchmark case at zero
// allocations per call, at one proc and over 20 calls: the executor and
// the evaluator call these kernels on every batch through scratch they
// own. All 19 cases measure 0 today.
func TestAllocationPins(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation pins skip under -race: sync.Pool drops items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, k := range []struct {
		name  string
		cases []kernelCase
	}{
		{"MatMulInto", matMulIntoCases()},
		{"MatMulTransAInto", matMulTransAIntoCases()},
		{"MatMulTransBInto", matMulTransBIntoCases()},
		{"Im2ColInto", im2ColIntoCases()},
		{"Col2ImInto", col2ImIntoCases()},
		{"Conv", convCases()},
	} {
		for _, c := range k.cases {
			if allocs, _ := allocsPerOp(t, 20, c.loop); allocs > 0 {
				t.Errorf("Benchmark%s/%s: %d allocs/op, ceiling 0", k.name, c.name, allocs)
			}
		}
	}
}
