package main

import (
	"fmt"
	"math"
	"runtime"
)

// measure is one reported number with the count of samples behind it. A
// NaN value is a metric that could not be resolved (a tail percentile
// with too few samples beyond it) and is shown as omitted.
type measure struct {
	V float64
	N int
}

func (m measure) ok() bool { return !math.IsNaN(m.V) && !math.IsInf(m.V, 0) }

// check is one output check of a workload. A failed check fails the run
// and is counted among the failed operations.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// pass is the outcome of running one workload once, traced or not.
type pass struct {
	// SetupS holds the duration of every repetition of the set-up (at
	// least one).
	SetupS []float64
	// WallS is the timed region; Work is how much work it completed, in
	// WorkUnit (samples, uploads, ops).
	WallS    float64
	Work     float64
	WorkUnit string
	// OpMs are the raw client-observed latencies of the workload's
	// operation, in milliseconds; OpName says which operation.
	OpMs   []float64
	OpName string
	// Attempted and Failed count operations; a refused, errored or
	// unchecked operation is failed.
	Attempted, Failed int
	Checks            []check
	// Layer holds the per-layer numbers this pass could take: counts
	// from public accessors always, span-derived numbers when traced.
	Layer map[string]measure
	// Spans is the finished trace (nil when untraced).
	Spans []span
	// Params are the workload parameters, for the provenance stamp.
	Params any
	// Notes are lines for the human-readable report only.
	Notes []string
	// Sig is what must be identical between two passes with the same
	// seed, for workloads whose result is deterministic.
	Sig string
	mem memDelta
}

func (p *pass) check(name string, ok bool, format string, args ...any) {
	p.Checks = append(p.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (p *pass) set(name string, v float64, n int) {
	if p.Layer == nil {
		p.Layer = map[string]measure{}
	}
	p.Layer[name] = measure{V: v, N: n}
}

// rate is work completed per second of the timed region.
func (p *pass) rate() float64 { return p.Work / p.WallS }

// totals folds the checks into the operation counts.
func (p *pass) totals() (attempted, failed int, correct bool) {
	attempted, failed = p.Attempted, p.Failed
	for _, c := range p.Checks {
		attempted++
		if !c.OK {
			failed++
		}
	}
	return attempted, failed, failed == 0
}

// memDelta is the process-level context of one timed region.
type memDelta struct {
	before, after runtime.MemStats
	liveMB        float64
}

// start collects the set-up's garbage, so every timed region begins from
// the same collector state whatever ran before it in the process.
func (m *memDelta) start() {
	runtime.GC()
	runtime.ReadMemStats(&m.before)
}

// stop reads the counters, then collects once more so that what is left
// on the heap is what the program still holds, not what it just dropped.
func (m *memDelta) stop() {
	runtime.ReadMemStats(&m.after)
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	m.liveMB = float64(live.HeapAlloc) / (1 << 20)
}

// report files the process metrics of the timed region under p.Layer.
func (m *memDelta) report(p *pass, ops int) {
	p.set("runtime.heap_end_mb", m.liveMB, 1)
	p.set("runtime.gc_pause_total_ms", float64(m.after.PauseTotalNs-m.before.PauseTotalNs)/1e6,
		int(m.after.NumGC-m.before.NumGC))
	if ops > 0 {
		p.set("runtime.mallocs_per_op", float64(m.after.Mallocs-m.before.Mallocs)/float64(ops), ops)
	}
}

// workload is one named set of inputs the benchmark runs. run executes
// it once at its fixed size; rec is nil for the untraced pass.
type workload struct {
	Name string
	Why  string
	// Probes lists the probe groups whose layers this workload
	// exercises; the others report 0 on it.
	Probes []string
	run    func(seed int64, rec *recorder) (*pass, error)
	// probeEnv gives the probes this workload's real shapes and inputs.
	probeEnv func(seed int64) (*probeEnv, error)
}
