package wire

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
// internal/tensor, internal/boinc and the root package carry copies, as
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

// TestAllocationPins holds the codecs' allocations per call at one proc
// over 50 calls. Encoding allocates the frame it returns and decoding
// the vector; the two decodes into caller memory allocate nothing. A
// ceiling above 0 is today's count plus max(2, a quarter).
func TestAllocationPins(t *testing.T) {
	if raceBuild() {
		t.Skip("allocation pins skip under -race: sync.Pool drops items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, p := range []struct {
		name    string
		loop    func(benchTB, int)
		ceiling uint64
	}{
		{"BenchmarkParamsRoundTrip", paramsRoundTrip, 4},   // 2 today
		{"BenchmarkEncodeCheckpoint", encodeCheckpoint, 3}, // 1 today
		{"BenchmarkDecodeParamsInto", decodeParamsInto, 0},
		{"BenchmarkDecodeRawInto", decodeRawInto, 0},
	} {
		if allocs, _ := allocsPerOp(t, 50, p.loop); allocs > p.ceiling {
			t.Errorf("%s: %d allocs/op, ceiling %d", p.name, allocs, p.ceiling)
		}
	}
}
