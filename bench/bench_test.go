package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyRuns are the four workloads at a size that finishes in well under a
// second each: same code paths, same shapes of traffic.
var tinyRuns = map[string]func(seed int64, rec *recorder) (*pass, error){
	"live_train": func(seed int64, rec *recorder) (*pass, error) {
		p := defaultLiveTrain()
		p.Epochs, p.Subtasks, p.ShardSize, p.Batch, p.ValSubset, p.Setups = 2, 10, 10, 5, 10, 1
		p.MinFinalAcc = 0  // too short to learn anything
		p.MinAccounted = 0 // subtasks this small are mostly HTTP between the spans
		return runLiveTrain(p, seed, rec)
	},
	"assim_storm": func(seed int64, rec *recorder) (*pass, error) {
		p := defaultAssimStorm()
		p.Epochs, p.Subtasks, p.Hidden, p.Setups = 3, 10, []int{64, 32}, 1
		return runAssimStorm(p, seed, rec)
	},
	"sched_open": func(seed int64, rec *recorder) (*pass, error) {
		p := defaultSchedOpen()
		p.Backlog, p.ClosedS, p.OpenS, p.RefRate, p.Setups = 500, 0.2, 0.3, 300, 1
		p.Ladder, p.RungS = []float64{600, 5000}, 0.15
		p.MinAchieved = 0.5 // one scheduling hiccup is a tenth of so short a phase
		return runSchedOpen(p, seed, rec)
	},
	"sim_fleet": func(seed int64, rec *recorder) (*pass, error) {
		p := defaultSimFleet()
		p.Clients, p.Epochs, p.Setups = 40, 2, 1
		return runSimFleet(p, seed, rec)
	},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload scaled down, untraced then traced with
// probes, and asserts that every metric of the catalogue is emitted once
// with a well-formed name and a unit, that the checks hold, and that the
// driver line has the contracted shape.
func TestSmoke(t *testing.T) {
	defer func(d time.Duration) { probeBudget = d }(probeBudget)
	probeBudget = 2 * time.Millisecond
	for _, w := range workloads {
		tiny := *w
		run := tinyRuns[w.Name]
		if run == nil {
			t.Fatalf("no tiny size for workload %s", w.Name)
		}
		tiny.run = run
		r, err := measureWorkload(&tiny, 3, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var out bytes.Buffer
		r.print(&out, true)
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.Name, r.Correct, r.Attempted, r.Failed, out.String())
		}
		if len(r.EndToEnd) != len(endToEndMetrics) || len(r.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics emitted, catalogue has %d and %d",
				w.Name, len(r.EndToEnd), len(r.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
		}
		for _, m := range endToEndMetrics {
			v, ok := r.EndToEnd[m.Name]
			if !ok || v.Unit != m.Unit || v.Omitted || v.Value <= 0 || v.N < 1 {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
			if n := strings.Count(out.String(), "   "+m.Name+" "); n != 1 {
				t.Errorf("%s: %s printed %d times", w.Name, m.Name, n)
			}
		}
		exercised := 0
		for _, m := range perLayerMetrics {
			v, ok := r.PerLayer[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", w.Name, m.Name, v, ok)
			}
			if v.N > 0 {
				exercised++
			}
			if n := strings.Count(out.String(), "   "+m.Name+" "); n != 1 {
				t.Errorf("%s: %s printed %d times", w.Name, m.Name, n)
			}
		}
		if exercised < 10 {
			t.Errorf("%s: only %d per-layer metrics have samples", w.Name, exercised)
		}
		if len(r.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.Name)
		}
		for _, s := range r.spans {
			if s.Name == "" || s.End < s.Start || (s.Parent == 0 && s.Actor != "") {
				t.Errorf("%s: malformed span %+v", w.Name, s)
				break
			}
		}
		for _, traced := range []bool{false, true} {
			var line struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(r.driverLine(traced)), &line); err != nil {
				t.Fatalf("%s: driver line: %v", w.Name, err)
			}
			want := len(endToEndMetrics)
			if traced {
				want = len(perLayerMetrics)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != want {
				t.Errorf("%s: driver line (traced=%v) malformed: %s", w.Name, traced, r.driverLine(traced))
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogue in step.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []endToEnd `json:"end_to_end"`
		PerLayer   []perLayer `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if strings.Join(f.Command, " ") != "go run ./bench" || len(f.Paths) != 1 || f.Paths[0] != "bench" || f.RunSeconds != runSeconds {
		t.Errorf("command %v, paths %v, run_seconds %d", f.Command, f.Paths, f.RunSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why == "" || len(f.Workloads[i].Why) > 200 || strings.Contains(f.Workloads[i].Why, "\n") {
			t.Errorf("workload %d: %+v, want name %s and a one-line why of at most 200 characters", i, f.Workloads[i], w.Name)
		}
	}
	seen := map[string]bool{}
	name := func(n, unit string) {
		if !nameRE.MatchString(n) || unit == "" || len(unit) > 16 || seen[n] {
			t.Errorf("metric %q unit %q: bad name, empty or long unit, or duplicate", n, unit)
		}
		seen[n] = true
	}
	if len(f.EndToEnd) != len(endToEndMetrics) || len(f.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, catalogue %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
	}
	hasSetup := false
	for i, m := range endToEndMetrics {
		g := f.EndToEnd[i]
		name(m.Name, m.Unit)
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: file %+v, catalogue %+v", i, g, m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range perLayerMetrics {
		g := f.PerLayer[i]
		name(m.Name, m.Unit)
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
			t.Errorf("per-layer %d: file %+v, catalogue %+v", i, g, m)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if v, ok := percentile(xs, 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 100 samples has one sample beyond it and must be omitted")
	}
	if _, ok := percentile(xs[:99], 0.90); ok {
		t.Error("p90 of 99 samples has nine samples beyond it and must be omitted")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if s := quartileSpread(xs[:10]); math.Abs(s-1.0) > 1e-12 {
		t.Errorf("quartile spread of 1..10 = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 100, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 100, 2*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 100, 2*time.Second)
	if len(a) < 150 || len(a) > 250 || len(a) != len(b) {
		t.Fatalf("%d and %d arrivals for 100/s over 2 s", len(a), len(b))
	}
	same := len(a) == len(c)
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
		same = same && i < len(c) && a[i] == c[i]
	}
	if same {
		t.Error("a different seed gave the same schedule")
	}
}

// TestOpenLoopChargesStalls: a stalled generator must show in the latency
// of the requests it delayed and in max_late, not vanish.
func TestOpenLoopChargesStalls(t *testing.T) {
	due := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	first := true
	res := runOpenLoop(due, 10*time.Millisecond, 1, time.Second, func(int) error {
		if first {
			first = false
			time.Sleep(30 * time.Millisecond)
		}
		return nil
	})
	if len(res.LatMs) != 4 || res.MaxLateMs < 25 || res.Aborted {
		t.Fatalf("%+v", res)
	}
	if res.LatMs[1] < 25 {
		t.Errorf("second request waited out the stall but reports %.1f ms", res.LatMs[1])
	}
	res = runOpenLoop(due, 10*time.Millisecond, 1, 10*time.Millisecond, func(int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if !res.Aborted || res.Started == len(due) {
		t.Errorf("a backlog growing past the abort lateness must stop the phase: %+v", res)
	}
}

func TestSpanParentsAndSelfTime(t *testing.T) {
	r := newRecorder("t")
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	r.add("client.upload", "c1", "r1", at(10), at(30))
	r.add("server.upload", "c1", "r1", at(12), at(27))
	r.add("client.op", "c1", "r1", at(0), at(30))
	r.add("server.upload", "c2", "r2", at(11), at(13)) // another client: no client span waits on it
	r.add("workload.t", "", "", at(0), at(40))
	spans := r.finish()
	by := map[string]span{}
	for _, s := range spans {
		by[s.Name+"/"+s.Actor] = s
	}
	if by["server.upload/c1"].Parent != by["client.upload/c1"].ID ||
		by["client.upload/c1"].Parent != by["client.op/c1"].ID ||
		by["client.op/c1"].Parent != by["workload.t/"].ID ||
		by["server.upload/c2"].Parent != by["workload.t/"].ID {
		t.Fatalf("parents wrong: %+v", spans)
	}
	ss := summarise(spans)
	if got := ss.selfMs["client.upload"][0]; got != 5 {
		t.Errorf("self time of client.upload = %v ms, want 20-15", got)
	}
	if got := ss.selfMs["client.op"][0]; got != 10 {
		t.Errorf("self time of client.op = %v ms, want 30-20", got)
	}
}

// TestArguments: -list names every workload and metric without running
// anything, and the arguments a driver cannot mean are refused with the
// usage status, among them a -seconds the fixed sizes were not chosen for.
func TestArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, w := range workloads {
		if !strings.Contains(out.String(), "  "+w.Name+"\n") {
			t.Errorf("-list does not name workload %s", w.Name)
		}
	}
	for _, m := range endToEndMetrics {
		if !strings.Contains(out.String(), "  "+m.Name+" ") {
			t.Errorf("-list does not name %s", m.Name)
		}
	}
	for _, args := range [][]string{
		{"-workload", "sched_open", "-seconds", "5"},
		{"-workload", "no_such_workload"},
		{"-trace", "2"},
		{"-repeat", "0"},
		{"stray"},
	} {
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("bench %v exited %d, want 2", args, code)
		}
	}
}
