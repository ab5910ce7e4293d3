// Command bench is the one benchmark of the whole stack. It runs four
// named workloads against the public functions of the repository's
// packages, prints every end-to-end and per-layer metric by name and
// unit, checks the outputs and exits non-zero when a check fails. See
// README.md in this directory for what each workload and metric is for.
//
//	go run ./bench                                  # all workloads, untraced then traced
//	go run ./bench -workload sched_open -trace 0    # one workload, end-to-end metrics only
//	go run ./bench -workload live_train -repeat 5   # run-to-run spread against the bounds
//	go run ./bench -list                            # names and units
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"
)

// runSeconds is run_seconds of BENCHMARK.json: the measuring time the
// fixed workload sizes come to on the 2-core reference host. A driver
// runs `go run ./bench -workload <name> -seed <n> -seconds <run_seconds>
// -trace <0|1>`; the sizes do not scale, so any other -seconds is refused
// instead of being measured for a different time than was asked.
const runSeconds = 20

// defaultSeed is the seed of a plain `go run ./bench`.
const defaultSeed = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all four)")
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Int("seconds", runSeconds, "run length a driver passes; the workloads are fixed-size, so only the default is accepted")
	trace := fs.Int("trace", 1, "0: untraced pass only, end-to-end metrics; 1: untraced pass, traced pass and probes, per-layer metrics too")
	repeat := fs.Int("repeat", 1, "run the untraced pass N times and print each end-to-end metric's spread against its bound")
	outFile := fs.String("o", "", "write the result document (JSON, with host and provenance stamp) to this file")
	spanFile := fs.String("spans", "bench_spans.jsonl", "write the traced passes' spans (one JSON object per line) to this file; empty for none")
	list := fs.Bool("list", false, "print workload and metric names with units, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	chosen, err := chooseWorkloads(*names)
	if err != nil || fs.NArg() > 0 || *seconds != runSeconds || *repeat < 1 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = fmt.Errorf("bad arguments %q", args)
		}
		fmt.Fprintln(stderr, "bench:", err)
		fs.Usage()
		return 2
	}
	doc := document{Host: hostStamp(), Seed: *seed, Date: time.Now().UTC().Format(time.RFC3339)}
	fmt.Fprintf(stdout, "vcdl bench: seed %d\nhost: %s\n", *seed, doc.Host)

	if *repeat > 1 {
		ok := true
		for _, w := range chosen {
			ok = repeatCheck(stdout, w, *seed, *repeat) && ok
		}
		if !ok {
			return 1
		}
		return 0
	}

	var spans []span
	ok := true
	for _, w := range chosen {
		r, err := measureWorkload(w, *seed, *trace == 1)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		r.print(stdout, *trace == 1)
		ok = ok && r.Correct
		spans = append(spans, r.spans...)
		doc.Workloads = append(doc.Workloads, r)
	}
	if *spanFile != "" && *trace == 1 {
		if err := writeSpans(*spanFile, spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%d spans written to %s\n", len(spans), *spanFile)
	}
	if *outFile != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err == nil {
			err = os.WriteFile(*outFile, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(doc.Workloads) == 1 {
		// The one-line result a driver reads: last line of standard output.
		fmt.Fprintln(stdout, doc.Workloads[0].driverLine(*trace == 1))
	}
	if !ok {
		fmt.Fprintln(stderr, "bench: FAILED: an output check did not hold")
		return 1
	}
	return 0
}

func chooseWorkloads(names string) ([]*workload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []*workload
	for _, n := range strings.Split(names, ",") {
		var found *workload
		for _, w := range workloads {
			if w.Name == n {
				found = w
			}
		}
		if found == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		out = append(out, found)
	}
	return out, nil
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %s\n", wl.Name)
	}
	fmt.Fprintln(w, "end-to-end metrics:")
	for _, m := range endToEndMetrics {
		fmt.Fprintf(w, "  %-44s %s\n", m.Name, m.Unit)
	}
	fmt.Fprintln(w, "per-layer metrics:")
	for _, m := range perLayerMetrics {
		fmt.Fprintf(w, "  %-44s %s\n", m.Name, m.Unit)
	}
}

// document is the result file: every number with the host it was taken
// on and the inputs that produced it.
type document struct {
	Host      host      `json:"host"`
	Seed      int64     `json:"seed"`
	Date      string    `json:"date"`
	Workloads []*result `json:"workloads"`
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value; 0 on a per-layer
	// metric means the workload does not exercise that layer.
	N int `json:"n"`
	// Omitted marks a value that could not be resolved (too few samples
	// beyond a tail percentile); Value is then 0 and means nothing.
	Omitted bool `json:"omitted,omitempty"`
}

func valueOf(m measure, unit string) value {
	if !m.ok() {
		return value{Unit: unit, N: m.N, Omitted: true}
	}
	return value{Value: m.V, Unit: unit, N: m.N}
}

// result is one workload's outcome: the untraced pass gives the
// end-to-end metrics, the traced pass and the probes the per-layer ones.
type result struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	Params    any              `json:"params"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Checks    []check          `json:"checks"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
	OpName    string           `json:"operation"`
	WorkUnit  string           `json:"work_unit"`
	spans     []span
}

// endToEndOf reads the end-to-end metrics off a pass.
func endToEndOf(p *pass) map[string]measure {
	return map[string]measure{
		"work_per_s": {p.rate(), int(p.Work)},
		"op_p50_ms":  {median(p.OpMs), len(p.OpMs)},
		"setup_s":    {slices.Min(p.SetupS), len(p.SetupS)},
	}
}

// measureWorkload runs the untraced pass and, when traced is set, the
// traced pass and the probes.
func measureWorkload(w *workload, seed int64, traced bool) (*result, error) {
	plain, err := w.run(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	r := &result{Workload: w.Name, Why: w.Why, Params: plain.Params, OpName: plain.OpName, WorkUnit: plain.WorkUnit,
		EndToEnd: map[string]value{}, Notes: plain.Notes}
	e2e := endToEndOf(plain)
	var unresolved []string
	for _, m := range endToEndMetrics {
		v := e2e[m.Name]
		if !v.ok() || v.V == 0 {
			unresolved = append(unresolved, fmt.Sprintf("%s (n=%d)", m.Name, v.N))
		}
		r.EndToEnd[m.Name] = valueOf(v, m.Unit)
	}
	plain.check("every end-to-end metric measured", len(unresolved) == 0, "missing or zero: %v", unresolved)
	r.Checks = plain.Checks
	r.Attempted, r.Failed, r.Correct = plain.totals()
	if !traced {
		return r, nil
	}

	tp, err := w.run(seed, newRecorder(w.Name))
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	if plain.Sig != "" {
		tp.check("same result as the untraced pass, bit for bit", tp.Sig == plain.Sig, "%s", tp.Sig)
	}
	if v, ok := percentile(tp.OpMs, 0.90); ok {
		tp.set("loadgen.op_p90_ms", v, len(tp.OpMs))
	}
	tp.set("loadgen.trace_overhead_pct", 100*(plain.rate()-tp.rate())/plain.rate(), 2)
	probes, err := runProbes(w, seed)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	r.PerLayer = map[string]value{}
	for _, m := range perLayerMetrics {
		v, ok := tp.Layer[m.Name]
		if pv, isProbe := probes[m.Name]; isProbe {
			v, ok = pv, true
		}
		if !ok {
			v = measure{} // not exercised by this workload
		}
		r.PerLayer[m.Name] = valueOf(v, m.Unit)
	}
	for _, c := range tp.Checks {
		c.Name = "traced pass: " + c.Name
		r.Checks = append(r.Checks, c)
	}
	a, f, c := tp.totals()
	r.Attempted, r.Failed, r.Correct = r.Attempted+a, r.Failed+f, r.Correct && c
	for _, n := range tp.Notes {
		r.Notes = append(r.Notes, "traced pass: "+n)
	}
	r.spans = tp.Spans
	return r, nil
}

func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "\n== %s: %s\n", r.Workload, r.Why)
	if blob, err := json.Marshal(r.Params); err == nil {
		fmt.Fprintf(w, "   parameters: %s\n", blob)
	}
	fmt.Fprintf(w, "   operation: %s; work counted in %s\n", r.OpName, r.WorkUnit)
	for _, m := range endToEndMetrics {
		v := r.EndToEnd[m.Name]
		fmt.Fprintf(w, "   %-44s %14s %-8s n=%-8d (%s is better, bound %.0f %%)\n", m.Name, v, v.Unit, v.N, m.Better, 100*m.Bound)
	}
	if traced {
		fmt.Fprintln(w, "   per-layer (traced pass and probes; '-' = layer not exercised by this workload):")
		for _, m := range perLayerMetrics {
			v := r.PerLayer[m.Name]
			if v.N == 0 {
				fmt.Fprintf(w, "   %-44s %14s %-8s\n", m.Name, "-", v.Unit)
				continue
			}
			fmt.Fprintf(w, "   %-44s %14s %-8s n=%-8d [%s, %s]\n", m.Name, v, v.Unit, v.N, m.Layer, m.Source)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	for _, c := range r.Checks {
		state := "ok  "
		if !c.OK {
			state = "FAIL"
		}
		fmt.Fprintf(w, "   check %s %s: %s\n", state, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "   operations: %d attempted, %d failed (checks included)\n", r.Attempted, r.Failed)
}

func (v value) String() string {
	if v.Omitted {
		return "omitted"
	}
	if math.Abs(v.Value) >= 1e6 {
		return fmt.Sprintf("%.0f", v.Value) // counts of bytes: no exponent
	}
	return fmt.Sprintf("%.6g", v.Value)
}

// driverLine is the one-line machine-readable result: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func (r *result) driverLine(traced bool) string {
	type dv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]dv{}
	src := r.EndToEnd
	if traced {
		src = r.PerLayer
	}
	for name, v := range src {
		metrics[name] = dv{v.Value, v.Unit}
	}
	blob, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]dv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(blob)
}
