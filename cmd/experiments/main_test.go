package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vcdl/internal/boinc"
	"vcdl/internal/exp"
	"vcdl/internal/metrics"
)

func TestUnknownExperimentRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "fig99"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	msg := errOut.String()
	if !strings.Contains(msg, `unknown experiment "fig99"`) || !strings.Contains(msg, "usage: experiments") {
		t.Fatalf("stderr = %q", msg)
	}
}

func TestBadFlagRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestTable1Runs(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "table1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Table I") || !strings.Contains(out.String(), "client-16x2.8") {
		t.Fatalf("stdout = %q", out.String())
	}
}

// TestRegistryIsSingleSourceOfTruth pins the satellite fix: usage text,
// validation and dispatch all derive from one ordered table.
func TestRegistryIsSingleSourceOfTruth(t *testing.T) {
	want := []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "storedb", "preempt", "ablation", "schedpolicy", "scale"}
	names := experimentNames()
	if len(names) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(names), len(want))
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, name, want[i])
		}
		if seen[name] {
			t.Errorf("duplicate registry entry %q", name)
		}
		seen[name] = true
		e, ok := lookup(name)
		if !ok || e.run == nil {
			t.Errorf("lookup(%q) = %v, %v", name, e, ok)
		}
	}
	// The usage string in the error path lists every registry name.
	var out, errOut strings.Builder
	run([]string{"-exp", "nope"}, &out, &errOut)
	for _, name := range names {
		if !strings.Contains(errOut.String(), name) {
			t.Errorf("usage text missing %q: %s", name, errOut.String())
		}
	}
}

// TestBadPolicyFlagRejected: -policy names are validated against the
// boinc policy registry before any simulation runs.
func TestBadPolicyFlagRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "schedpolicy", "-policy", "warp-speed"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown policy") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// TestSelectedPolicies resolves the -policy flag forms.
func TestSelectedPolicies(t *testing.T) {
	r := &runner{policies: "all"}
	if names, err := r.selectedPolicies(); err != nil || !slices.Equal(names, boinc.PolicyNames()) {
		t.Fatalf("all = %v, %v", names, err)
	}
	r.policies = "paper, fifo"
	names, err := r.selectedPolicies()
	if err != nil || len(names) != 2 || names[0] != "paper" || names[1] != "fifo" {
		t.Fatalf("subset = %v, %v", names, err)
	}
}

// TestScaleGridSmoke runs the compute-backend scale grid on a tiny fleet
// and checks both artifacts land: the per-cell CSV and the
// BENCH_compute.json perf record with the host stamped, real first and
// every backend present.
func TestScaleGridSmoke(t *testing.T) {
	dir := t.TempDir()
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "scale", "-clients", "24", "-epochs", "2", "-csv", dir}, &out, &errOut); code != 0 {
		t.Fatalf("exit = %d, stderr %q", code, errOut.String())
	}
	csv, err := os.ReadFile(filepath.Join(dir, "scale.csv"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "BENCH_compute.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Host struct {
			GOMAXPROCS int    `json:"gomaxprocs"`
			GoVersion  string `json:"go_version"`
			Commit     string `json:"git_commit"`
		} `json:"host"`
		Grid []struct {
			Backend       string  `json:"backend"`
			Wall          float64 `json:"wallclock_seconds"`
			Speedup       float64 `json:"speedup_vs_real"`
			Fidelity      float64 `json:"fidelity_vs_real"`
			FinalAccuracy float64 `json:"final_acc"`
		} `json:"grid"`
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		t.Fatalf("BENCH_compute.json: %v", err)
	}
	if rec.Host.GOMAXPROCS < 1 || rec.Host.GoVersion == "" || rec.Host.Commit == "" {
		t.Errorf("BENCH_compute.json host block = %+v, want the machine stamped", rec.Host)
	}
	// A test binary carries no VCS stamp, so inside a checkout the commit
	// must have come from git itself.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if head := strings.TrimSpace(string(out)); !strings.HasPrefix(rec.Host.Commit, head) {
			t.Errorf("BENCH_compute.json git_commit = %q, want %s", rec.Host.Commit, head)
		}
	}
	seen := map[string]bool{}
	for i, c := range rec.Grid {
		seen[c.Backend] = true
		if c.Wall <= 0 || c.Speedup <= 0 {
			t.Errorf("cell %d (%s): wall %v speedup %v", i, c.Backend, c.Wall, c.Speedup)
		}
		// cached/parallel cells must be byte-identical to real.
		if c.Backend != "surrogate" && c.Fidelity != 0 {
			t.Errorf("%s: fidelity delta %v, want 0", c.Backend, c.Fidelity)
		}
	}
	for _, want := range []string{"real", "real+cached", "parallel", "parallel+cached", "surrogate"} {
		if !seen[want] {
			t.Errorf("BENCH_compute.json missing backend %q", want)
		}
	}
	if rec.Grid[0].Backend != "real" {
		t.Errorf("grid[0] = %q, want the real baseline first", rec.Grid[0].Backend)
	}
	if !strings.Contains(string(csv), "parallel+cached") {
		t.Errorf("scale.csv missing backend rows:\n%s", csv)
	}
}

// TestBadClientsFlagRejected: -clients is validated before any run.
func TestBadClientsFlagRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "scale", "-clients", "2"}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "-clients") {
		t.Fatalf("stderr = %q", errOut.String())
	}
}

// TestCSVWriteFailurePropagates pins the satellite fix: a failing -csv
// DIR fails the experiment (exit 1) instead of logging and exiting 0.
func TestCSVWriteFailurePropagates(t *testing.T) {
	series := metrics.Series{Name: "x", Points: nil}
	r := &runner{csvDir: "/dev/null/not-a-dir"}
	if err := r.writeCSV("curve", series); err == nil {
		t.Fatal("writeCSV on an uncreatable directory returned nil")
	}
	// The experiment function surfaces the CSV error: fig4 with a
	// pre-populated cache exercises the path without running simulations.
	r = &runner{
		csvDir:    "/dev/null/not-a-dir",
		out:       &strings.Builder{},
		fig4Cache: []*exp.Result{{Name: "alpha=0.70"}},
	}
	if err := r.fig4(); err == nil {
		t.Fatal("fig4 with failing -csv returned nil error")
	}
}
