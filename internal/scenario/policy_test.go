package scenario

import (
	"strings"
	"testing"
)

const policyScenario = `
scenario policy-hotswap
description FIFO start, reliability-weighted mid-run.

fleet:
  clients 2
  epochs 2
  seed 4
  policy fifo

events:
  at 2m policy reliability-weighted
  at 4m policy random 7

assert:
  epochs == 2
`

func TestPolicyDirectiveParsesAndBuilds(t *testing.T) {
	sc, err := Parse(strings.NewReader(policyScenario), "policy.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := sc.Fleet.Policy; len(got) != 1 || got[0] != "fifo" {
		t.Fatalf("fleet policy = %v", got)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.BuildConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Policy == nil || cfg.Policy.Name() != "fifo" {
		t.Fatalf("built policy = %v", cfg.Policy)
	}
	if len(sc.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(sc.Events))
	}
	if desc := sc.Events[0].Desc(); desc != "at 2m policy reliability-weighted" {
		t.Fatalf("event desc = %q", desc)
	}
	if desc := sc.Events[1].Desc(); desc != "at 4m policy random 7" {
		t.Fatalf("event desc = %q", desc)
	}
}

func TestPolicyDirectiveRejectsUnknownNames(t *testing.T) {
	bad := strings.ReplaceAll(policyScenario, "policy fifo", "policy warp-speed")
	if _, err := Parse(strings.NewReader(bad), "policy.txt"); err == nil ||
		!strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("fleet error = %v", err)
	}
	bad = strings.ReplaceAll(policyScenario, "policy reliability-weighted", "policy warp-speed")
	if _, err := Parse(strings.NewReader(bad), "policy.txt"); err == nil ||
		!strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("event error = %v", err)
	}
	bad = strings.ReplaceAll(policyScenario, "policy random 7", "policy random x")
	if _, err := Parse(strings.NewReader(bad), "policy.txt"); err == nil ||
		!strings.Contains(err.Error(), "bad seed") {
		t.Fatalf("argument error = %v", err)
	}
}

func TestPolicyHotSwapRuns(t *testing.T) {
	sc, err := Parse(strings.NewReader(policyScenario), "policy.txt")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunScenario(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("assertions failed:\n%s", rep.Summary())
	}
	trace := strings.Join(rep.Trace, "\n")
	for _, want := range []string{"scheduler policy fifo -> reliability-weighted", "scheduler policy reliability-weighted -> random"} {
		if !strings.Contains(trace, want) {
			t.Errorf("trace missing %q:\n%s", want, trace)
		}
	}
}
