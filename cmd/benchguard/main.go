// Command benchguard is the allocation-regression gate for the compute
// hot path. It runs the pinned benchmark set (tensor kernels, wire
// round-trip, the 100k-backlog scheduler request, the executor subtask,
// the evaluator pass, the upload → assimilate path) with -benchmem at
// fixed iteration counts, then compares allocs/op against the baselines
// committed in BENCH_kernels.json:
//
//   - entries marked pinned_zero_alloc must report exactly 0 allocs/op —
//     any allocation on those kernels is a regression, full stop;
//   - every other entry may not exceed its committed allocs/op by more
//     than max(2, 25%) — slack for map-growth amortization jitter, tight
//     enough to catch a reintroduced per-call copy;
//   - entries marked gate_bytes, whose allocations are few and megabytes
//     each, may not exceed their committed bytes/op by more than 10% —
//     one more copy of the parameter vector is a single alloc/op, which
//     the count above would wave through.
//
// ns/op and throughput metrics are recorded in the same file but never
// gated: CI hosts are too noisy for wall-clock thresholds, while
// allocation counts are deterministic.
//
// Usage:
//
//	go run ./cmd/benchguard           check against BENCH_kernels.json
//	go run ./cmd/benchguard -update   re-measure and rewrite the baseline
//
// Every benchmark runs with -cpu 1, so the pins are taken at one proc
// whatever host or GOMAXPROCS the gate runs under: the executor's worker
// dispatch allocates per proc (about 60 allocs/op more at two), and a
// count that moves with the core count cannot be compared with a
// committed number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// target is one `go test -bench` invocation. Fixed iteration counts
// (-benchtime Nx) keep amortized allocs/op comparable between the
// committed baseline and the CI check.
type target struct {
	pkg       string
	bench     string
	benchtime string
	// pinnedZero marks every benchmark this target emits as
	// zero-allocation-pinned.
	pinnedZero bool
	// gateBytes gates bytes/op as well as allocs/op.
	gateBytes bool
}

var targets = []target{
	{pkg: "./internal/tensor", bench: "^(BenchmarkMatMulInto|BenchmarkMatMulTransAInto|BenchmarkMatMulTransBInto|BenchmarkIm2ColInto|BenchmarkCol2ImInto)$", benchtime: "20x", pinnedZero: true},
	{pkg: "./internal/wire", bench: "^(BenchmarkParamsRoundTrip|BenchmarkEncodeCheckpoint)$", benchtime: "50x"},
	{pkg: "./internal/boinc", bench: "^BenchmarkRequestWork$/^paper$", benchtime: "300x"},
	{pkg: ".", bench: "^(BenchmarkExecutorSubtask|BenchmarkEvaluatorAccuracy)$", benchtime: "20x"},
	{pkg: ".", bench: "^(BenchmarkUploadAssimilate|BenchmarkVCASGDAssimilate)$", benchtime: "50x", gateBytes: true},
}

// Entry is one benchmark measurement in BENCH_kernels.json.
type Entry struct {
	Pkg         string             `json:"pkg"`
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	PinnedZero  bool               `json:"pinned_zero_alloc,omitempty"`
	GateBytes   bool               `json:"gate_bytes,omitempty"`
}

// File is the BENCH_kernels.json schema.
type File struct {
	Note       string  `json:"note"`
	Benchmarks []Entry `json:"benchmarks"`
}

const baselineNote = "Compute hot-path benchmark baselines (cmd/benchguard -update). " +
	"allocs_per_op is the gated column: pinned_zero_alloc entries must stay at 0, " +
	"the rest within max(2, 25%) of baseline; gate_bytes entries must also keep bytes_per_op within 10%. " +
	"Measured with -cpu 1 so allocs_per_op does not move with the host's core count. " +
	"ns_per_op and metrics are informational."

// benchLine matches one benchmark result row; the trailing -N is the
// GOMAXPROCS suffix, not part of the benchmark's identity.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	os.Exit(run())
}

func run() int {
	update := flag.Bool("update", false, "re-measure and rewrite the baseline file")
	baseline := flag.String("baseline", "BENCH_kernels.json", "baseline file to check or update")
	flag.Parse()

	var measured []Entry
	for _, t := range targets {
		entries, err := runTarget(t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %s: %v\n", t.pkg, err)
			return 1
		}
		if len(entries) == 0 {
			fmt.Fprintf(os.Stderr, "benchguard: %s: no benchmarks matched %q\n", t.pkg, t.bench)
			return 1
		}
		measured = append(measured, entries...)
	}
	sort.Slice(measured, func(i, j int) bool {
		if measured[i].Pkg != measured[j].Pkg {
			return measured[i].Pkg < measured[j].Pkg
		}
		return measured[i].Name < measured[j].Name
	})

	if *update {
		blob, err := json.MarshalIndent(File{Note: baselineNote, Benchmarks: measured}, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*baseline, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			return 1
		}
		fmt.Printf("benchguard: wrote %d baselines to %s\n", len(measured), *baseline)
		return 0
	}

	blob, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v (run with -update to create the baseline)\n", err)
		return 1
	}
	var base File
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: parse %s: %v\n", *baseline, err)
		return 1
	}

	got := make(map[string]Entry, len(measured))
	for _, e := range measured {
		got[e.Pkg+":"+e.Name] = e
	}
	failures := 0
	for _, want := range base.Benchmarks {
		key := want.Pkg + ":" + want.Name
		e, ok := got[key]
		if !ok {
			fmt.Fprintf(os.Stderr, "FAIL %s: baseline benchmark did not run\n", key)
			failures++
			continue
		}
		limit := allocLimit(want)
		switch {
		case want.PinnedZero && e.AllocsPerOp != 0:
			fmt.Fprintf(os.Stderr, "FAIL %s: %d allocs/op on a pinned-zero kernel\n", key, e.AllocsPerOp)
			failures++
		case e.AllocsPerOp > limit:
			fmt.Fprintf(os.Stderr, "FAIL %s: %d allocs/op, baseline %d (limit %d)\n", key, e.AllocsPerOp, want.AllocsPerOp, limit)
			failures++
		case want.GateBytes && e.BytesPerOp > want.BytesPerOp+want.BytesPerOp/10:
			fmt.Fprintf(os.Stderr, "FAIL %s: %d B/op, baseline %d (limit +10%%)\n", key, e.BytesPerOp, want.BytesPerOp)
			failures++
		default:
			fmt.Printf("ok   %s: %d allocs/op (baseline %d), %.0f ns/op\n", key, e.AllocsPerOp, want.AllocsPerOp, e.NsPerOp)
		}
	}
	for key := range got {
		if !hasBaseline(base.Benchmarks, key) {
			fmt.Printf("note %s: measured but not in baseline (run -update to track it)\n", key)
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: %d allocation regression(s)\n", failures)
		return 1
	}
	fmt.Printf("benchguard: %d baselines hold\n", len(base.Benchmarks))
	return 0
}

func hasBaseline(entries []Entry, key string) bool {
	for _, e := range entries {
		if e.Pkg+":"+e.Name == key {
			return true
		}
	}
	return false
}

// allocLimit is the per-entry ceiling: exact zero for pinned kernels,
// baseline + max(2, 25%) for the rest.
func allocLimit(want Entry) int64 {
	if want.PinnedZero {
		return 0
	}
	slack := want.AllocsPerOp / 4
	if slack < 2 {
		slack = 2
	}
	return want.AllocsPerOp + slack
}

// runTarget shells out to `go test -bench` (at -cpu 1, which overrides
// any GOMAXPROCS in the environment) and parses the result rows.
func runTarget(t target) ([]Entry, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-cpu", "1",
		"-bench", t.bench, "-benchtime", t.benchtime, "-benchmem", t.pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go test: %v\n%s", err, out)
	}
	var entries []Entry
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		e := Entry{Pkg: t.pkg, Name: m[1], PinnedZero: t.pinnedZero, GateBytes: t.gateBytes}
		e.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		if err := parseMeasurements(&e, m[3]); err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// parseMeasurements reads the value/unit pairs of one result row
// (ns/op, B/op, allocs/op, plus any ReportMetric extras like GFLOPS).
func parseMeasurements(e *Entry, rest string) error {
	fields := strings.Fields(rest)
	if len(fields)%2 != 0 {
		return fmt.Errorf("odd measurement fields %v", fields)
	}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return err
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = int64(v)
		case "allocs/op":
			e.AllocsPerOp = int64(v)
		default:
			if e.Metrics == nil {
				e.Metrics = map[string]float64{}
			}
			e.Metrics[unit] = v
		}
	}
	return nil
}
