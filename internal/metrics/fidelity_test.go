package metrics

import (
	"strings"
	"testing"
)

func TestMixString(t *testing.T) {
	s := RunStats{AssignMix: map[string]int{"fifo": 3, "paper": 12, "random": 1}}
	if got := s.MixString(); got != "fifo:3|paper:12|random:1" {
		t.Fatalf("MixString = %q", got)
	}
	if got := (RunStats{}).MixString(); got != "" {
		t.Fatalf("empty MixString = %q", got)
	}
}

func TestFidelityCSV(t *testing.T) {
	rows := []RunStats{
		{Scenario: "s", Mode: "sim", Seed: 7, Epochs: 4, EpochsToTarget: 3, FinalAccuracy: 0.61,
			Hours: 0.4028, Issued: 40, Reissued: 2, Timeouts: 1,
			AssignMix: map[string]int{"paper": 40},
			AssignP50: 12.5, AssignP95: 90, AssignP99: 240.25, CacheHitRatio: 0.5,
			WallSeconds: 0.88},
		{Scenario: "s", Mode: "real", Seed: 7, Epochs: 4, EpochsToTarget: -1, FinalAccuracy: 0.6,
			Hours: 0.3, Issued: 41, Reissued: 3, Timeouts: 2,
			AssignMix: map[string]int{"paper": 41}, WallSeconds: 18.1},
	}
	csv := FidelityCSV(rows)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != FidelityHeader {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "s,sim,7,4,3,0.6100,0.4028,40,2,1,paper:40,12.50,90.00,240.25,0.500,0.88" {
		t.Fatalf("sim row = %q", lines[1])
	}
	if lines[2] != "s,real,7,4,-1,0.6000,0.3000,41,3,2,paper:41,0.00,0.00,0.00,0.000,18.10" {
		t.Fatalf("real row = %q", lines[2])
	}
	// Header and rows carry the same column count.
	want := len(strings.Split(FidelityHeader, ","))
	for _, l := range lines[1:] {
		if got := len(strings.Split(l, ",")); got != want {
			t.Fatalf("row %q has %d columns, want %d", l, got, want)
		}
	}
}

// TestFidelityCSVEmpty pins the degenerate reports: no runs at all, and
// a run that never completed an epoch (zero-value stats).
func TestFidelityCSVEmpty(t *testing.T) {
	if got := FidelityCSV(nil); got != FidelityHeader+"\n" {
		t.Fatalf("empty CSV = %q", got)
	}
	csv := FidelityCSV([]RunStats{{Scenario: "dead", Mode: "sim", Seed: 3}})
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if lines[1] != "dead,sim,3,0,0,0.0000,0.0000,0,0,0,,0.00,0.00,0.00,0.000,0.00" {
		t.Fatalf("zero row = %q", lines[1])
	}
	if got, want := len(strings.Split(lines[1], ",")), len(strings.Split(FidelityHeader, ",")); got != want {
		t.Fatalf("zero row has %d columns, want %d", got, want)
	}
}

// TestFidelityCSVSingleEpoch covers a one-epoch run where the target
// was hit immediately (EpochsToTarget = first epoch).
func TestFidelityCSVSingleEpoch(t *testing.T) {
	row := RunStats{Scenario: "one", Mode: "real", Seed: 1, Epochs: 1, EpochsToTarget: 1,
		FinalAccuracy: 0.9999, Hours: 0.01, Issued: 6,
		AssignMix: map[string]int{"paper": 6}, CacheHitRatio: 1, WallSeconds: 2}
	if got := FidelityRow(row); got != "one,real,1,1,1,0.9999,0.0100,6,0,0,paper:6,0.00,0.00,0.00,1.000,2.00" {
		t.Fatalf("single-epoch row = %q", got)
	}
}

// TestFidelityCSVMismatchedPolicies checks rows whose runs used
// different policy sets still line up column-for-column: the mix stays
// one CSV cell no matter how many policies it mentions.
func TestFidelityCSVMismatchedPolicies(t *testing.T) {
	rows := []RunStats{
		{Scenario: "m", Mode: "sim", Seed: 2, AssignMix: map[string]int{"paper": 10}},
		{Scenario: "m", Mode: "real", Seed: 2, AssignMix: map[string]int{"fifo": 4, "paper": 5, "random": 1}},
		{Scenario: "m", Mode: "sim", Seed: 3},
	}
	lines := strings.Split(strings.TrimSpace(FidelityCSV(rows)), "\n")
	want := len(strings.Split(FidelityHeader, ","))
	for _, l := range lines {
		if got := len(strings.Split(l, ",")); got != want {
			t.Fatalf("row %q has %d columns, want %d", l, got, want)
		}
	}
	if !strings.Contains(lines[2], "fifo:4|paper:5|random:1") {
		t.Fatalf("multi-policy mix cell wrong: %q", lines[2])
	}
}
