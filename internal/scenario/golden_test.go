package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// supportsSim reports whether a bundled scenario can run on the
// simulator at all — the real-only recovery scenarios (data plane,
// durable checkpoints; DESIGN.md §11) have no sim goldens.
func supportsSim(sc *Scenario) bool {
	modes, _ := sc.Modes()
	for _, m := range modes {
		if m == ModeSim {
			return true
		}
	}
	return false
}

// TestBundledScenarioGolden pins the end-to-end output of every bundled
// scenario against golden trace files: the same scenario file and seed
// must keep producing the identical event trace and closing metrics
// across refactors (in particular, the scheduler's default `paper`
// policy must stay byte-identical to the pre-policy-API behaviour).
// Regenerate with `go test ./internal/scenario -run Golden -update`.
func TestBundledScenarioGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bundled scenarios found: %v", err)
	}
	for _, file := range files {
		file := file
		name := strings.TrimSuffix(filepath.Base(file), ".txt")
		t.Run(name, func(t *testing.T) {
			sc, err := Load(file)
			if err != nil {
				t.Fatal(err)
			}
			if !supportsSim(sc) {
				t.Skipf("real-only scenario (no sim golden); covered by the real-mode tests")
			}
			rep, err := RunScenario(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Join(rep.Trace, "\n") + "\n"
			golden := filepath.Join("testdata", "golden", name+".trace")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("trace drifted from golden %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestBundledScenarioBackendEquivalence runs every bundled scenario
// under the memoizing compute backends — bare "cached" and its spelled
// out name, which pool their misses, and the inline memo — and asserts
// the event trace matches the real-backend golden byte for byte: the
// scenario half of the compute-backend equivalence contract (DESIGN.md
// §8).
func TestBundledScenarioBackendEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("backend × scenario sweep skipped in -short (covered per-config by vcsim's TestBackendEquivalence)")
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bundled scenarios found: %v", err)
	}
	for _, file := range files {
		file := file
		name := strings.TrimSuffix(filepath.Base(file), ".txt")
		for _, backend := range []string{"cached", "parallel+cached", "real+cached"} {
			backend := backend
			t.Run(name+"/"+backend, func(t *testing.T) {
				sc, err := Load(file)
				if err != nil {
					t.Fatal(err)
				}
				if !supportsSim(sc) {
					t.Skipf("real-only scenario (no sim golden); covered by the real-mode tests")
				}
				if sc.Fleet.Compute != "" {
					t.Skipf("scenario pins its own backend %q", sc.Fleet.Compute)
				}
				sc.Fleet.Compute = backend
				sc.Fleet.ComputeWorkers = 2
				rep, err := RunScenario(sc, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got := strings.Join(rep.Trace, "\n") + "\n"
				want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".trace"))
				if err != nil {
					t.Fatalf("missing golden file (run with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s backend drifted from the real-backend golden:\n--- got ---\n%s--- want ---\n%s",
						backend, got, want)
				}
			})
		}
	}
}
