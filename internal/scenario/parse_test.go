package scenario

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcdl/internal/cloud"
)

var update = flag.Bool("update", false, "rewrite golden files")

const goodScenario = `
# A scenario exercising every construct.
scenario kitchen-sink
description Every fleet key, event and assertion form.

fleet:
  workload quick
  pservers 2
  clients 4 clientB
  tasks 2
  epochs 3
  subtasks 8
  seed 11
  timeout 20m
  regions us-east us-west
  sticky off
  autoscale on 6
  target-accuracy 0.9
  compute parallel+cached 4
  replicate 2

events:
  at 60s join 2 mixed us-west
  at 2m  slow 0 4.0
  at 3m  preempt 0.25
  at 4m  outage us-west 5s
  at 5m  set timeout 10m
  at 5m  set floor 0.8
  at 6m  ps-fail 1
  at 8m  ps-recover 1
  at 9m  recover us-west
  at 10m preempt 0
  at 12m leave 2

assert:
  final_accuracy >= 0.1
  accuracy@1h <= 1.0
  hours_to_acc@0.05 <= 100
  epochs == 3
  reissued <= 1000
  wallclock_seconds <= 600
`

func TestParseGoodScenario(t *testing.T) {
	sc, err := Parse(strings.NewReader(goodScenario), "good.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if sc.Name != "kitchen-sink" {
		t.Fatalf("name = %q", sc.Name)
	}
	f := sc.Fleet
	if f.PServers != 2 || f.Clients != 4 || f.Tasks != 2 || f.ClientType != "clientB" {
		t.Fatalf("fleet = %+v", f)
	}
	if f.Epochs != 3 || f.Subtasks != 8 || f.Seed != 11 || f.TimeoutSeconds != 1200 {
		t.Fatalf("fleet = %+v", f)
	}
	if len(f.Regions) != 2 || f.Regions[1] != cloud.USWest {
		t.Fatalf("regions = %v", f.Regions)
	}
	if !f.StickyOff || !f.AutoScale || f.MaxPServers != 6 || f.TargetAccuracy != 0.9 {
		t.Fatalf("fleet = %+v", f)
	}
	if f.Compute != "parallel+cached" || f.ComputeWorkers != 4 || f.Replication != 2 {
		t.Fatalf("compute fleet keys = %+v", f)
	}
	if len(sc.Events) != 11 {
		t.Fatalf("parsed %d events, want 11", len(sc.Events))
	}
	if sc.Events[0].At() != 60 || sc.Events[10].At() != 720 {
		t.Fatalf("event times wrong: %v .. %v", sc.Events[0].At(), sc.Events[10].At())
	}
	if len(sc.Asserts) != 6 {
		t.Fatalf("parsed %d assertions, want 6", len(sc.Asserts))
	}
	if a := sc.Asserts[1]; a.Metric != "accuracy_at" || a.Arg != 3600 {
		t.Fatalf("accuracy@ assertion = %+v", a)
	}
	if a := sc.Asserts[2]; a.Metric != "hours_to_acc" || a.Arg != 0.05 {
		t.Fatalf("hours_to_acc@ assertion = %+v", a)
	}
}

func TestParseDescriptionForms(t *testing.T) {
	cases := map[string]string{
		"scenario s\ndescription Clients #0 and #1 slow down\n": "Clients #0 and #1 slow down",
		"scenario s\ndescription: colon style works too\n":      "colon style works too",
		"scenario s\ndescription\n":                             "",
	}
	for in, want := range cases {
		sc, err := Parse(strings.NewReader(in), "d.txt")
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if sc.Description != want {
			t.Errorf("%q: description = %q, want %q", in, sc.Description, want)
		}
	}
	// A typo'd directive must error, not be absorbed as a description.
	if _, err := Parse(strings.NewReader("scenario s\ndescriptionX oops\n"), "d.txt"); err == nil {
		t.Fatal("descriptionX accepted")
	}
}

func TestParseDurations(t *testing.T) {
	cases := map[string]float64{"90s": 90, "15m": 900, "1.5h": 5400, "42": 42, "0.5m": 30}
	for in, want := range cases {
		got, err := parseDuration(in)
		if err != nil || got != want {
			t.Fatalf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", "h", "-5s", "5d", "fast"} {
		if _, err := parseDuration(in); err == nil {
			t.Fatalf("parseDuration(%q) accepted", in)
		}
	}
}

// TestParseComputeDirective pins the compute/replicate fleet grammar.
func TestParseComputeDirective(t *testing.T) {
	for _, bad := range []string{
		"scenario s\nfleet:\n  compute bogus\n",
		"scenario s\nfleet:\n  compute\n",
		"scenario s\nfleet:\n  compute parallel 8 extra\n",
		"scenario s\nfleet:\n  replicate 0\n",
		"scenario s\nfleet:\n  replicate two\n",
	} {
		if _, err := Parse(strings.NewReader(bad), "c.txt"); err == nil {
			t.Errorf("accepted malformed input %q", bad)
		}
	}
	sc, err := Parse(strings.NewReader("scenario s\nfleet:\n  compute surrogate\n"), "c.txt")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Fleet.Compute != "surrogate" || sc.Fleet.ComputeWorkers != 0 {
		t.Fatalf("fleet = %+v", sc.Fleet)
	}
}

// TestParseDataPlaneDirectives pins the blob/checkpoint/store grammar:
// fleet switches, the blob-kill and rejoin events, and the real-only
// assertion metrics.
func TestParseDataPlaneDirectives(t *testing.T) {
	sc, err := Parse(strings.NewReader(`
scenario data-plane
fleet:
  clients 3
  blobs on
  checkpoints on
  store strong
events:
  at 1m  blob-kill 8000
  at 2m  leave 1
  at 3m  rejoin 1
  at 4m  rejoin client-02-t2.small
  at 5m  blob-kill off
assert:
  blob_resumes > 0
  blob_cache_hits >= 1
  blob_mb <= 64
  ckpt_epoch >= 2
  ckpt_restores >= 0
`), "dp.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	f := sc.Fleet
	if !f.Blobs || !f.Checkpoint || f.StoreKind != "strong" {
		t.Fatalf("fleet = %+v", f)
	}
	if len(sc.Events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(sc.Events))
	}
	if e, ok := sc.Events[0].(blobKillEvent); !ok || e.bytes != 8000 {
		t.Fatalf("event 0 = %#v, want blob-kill 8000", sc.Events[0])
	}
	if e, ok := sc.Events[2].(memberEvent); !ok || e.verb != "rejoin" || e.n != 1 || e.id != "" {
		t.Fatalf("event 2 = %#v, want rejoin 1", sc.Events[2])
	}
	if e, ok := sc.Events[3].(memberEvent); !ok || e.verb != "rejoin" || e.id != "client-02-t2.small" {
		t.Fatalf("event 3 = %#v, want rejoin by id", sc.Events[3])
	}
	if e, ok := sc.Events[4].(blobKillEvent); !ok || e.bytes != 0 {
		t.Fatalf("event 4 = %#v, want blob-kill off", sc.Events[4])
	}
	if len(sc.Asserts) != 5 || sc.Asserts[0].Metric != "blob_resumes" || sc.Asserts[3].Metric != "ckpt_epoch" {
		t.Fatalf("asserts = %+v", sc.Asserts)
	}

	for _, bad := range []string{
		"scenario s\nfleet:\n  store bogus\n",
		"scenario s\nfleet:\n  blobs maybe\n",
		"scenario s\nfleet:\n  checkpoints\n",
		"scenario s\nevents:\n  at 1m blob-kill 0\n",
		"scenario s\nevents:\n  at 1m blob-kill -5\n",
		"scenario s\nevents:\n  at 1m rejoin 0\n",
		"scenario s\nassert:\n  blob_bogus > 0\n",
	} {
		if _, err := Parse(strings.NewReader(bad), "bad.txt"); err == nil {
			t.Errorf("accepted malformed input %q", bad)
		}
	}
}

// TestMalformedScenariosGolden asserts that every malformed scenario
// under testdata/bad is rejected with exactly the error text recorded in
// the sibling .err golden file. Regenerate with: go test -run Golden -update
func TestMalformedScenariosGolden(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "bad", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no bad testdata scenarios found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			_, err := Load(file)
			if err == nil {
				t.Fatalf("%s: malformed scenario was accepted", file)
			}
			golden := strings.TrimSuffix(file, ".txt") + ".err"
			if *update {
				if werr := os.WriteFile(golden, []byte(err.Error()+"\n"), 0o644); werr != nil {
					t.Fatal(werr)
				}
				return
			}
			want, rerr := os.ReadFile(golden)
			if rerr != nil {
				t.Fatalf("missing golden file (run with -update): %v", rerr)
			}
			if got := err.Error() + "\n"; got != string(want) {
				t.Errorf("%s: error mismatch\n--- got ---\n%s--- want ---\n%s", file, got, want)
			}
		})
	}
}

// FuzzParse feeds the parser arbitrary scenario text, seeded with every
// bundled scenario and every malformed-file fixture. Parse must never
// panic, and a scenario it accepts must survive Validate, Modes and
// every event's Desc without panicking either.
func FuzzParse(f *testing.F) {
	for _, pattern := range []string{
		filepath.Join("..", "..", "examples", "scenarios", "*.txt"),
		filepath.Join("testdata", "bad", "*.txt"),
	} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			f.Fatalf("no seed files match %s: %v", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := Parse(strings.NewReader(src), "fuzz.txt")
		if err != nil {
			return
		}
		_ = sc.Validate()
		sc.Modes()
		for _, ev := range sc.Events {
			_ = ev.Desc()
		}
	})
}
