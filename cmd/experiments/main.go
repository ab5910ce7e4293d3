// Command experiments regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §3 for the experiment index):
//
//	experiments -exp table1          Table I   instance catalog
//	experiments -exp fig2            Figure 2  distributed configs, α=0.95
//	experiments -exp fig3            Figure 3  training time vs Tn
//	experiments -exp fig4            Figure 4  VC-ASGD α sweep on P3C3T4
//	experiments -exp fig5            Figure 5  zoomed Fig. 4 windows
//	experiments -exp fig6            Figure 6  distributed vs single instance
//	experiments -exp storedb         §IV-D     eventual vs strong store
//	experiments -exp preempt         §IV-E     preemptible-instance model
//	experiments -exp ablation        A1/A2     update rules & sticky files
//	experiments -exp schedpolicy     §III-B    scheduling-policy ablation
//	experiments -exp scale           S1        compute-backend scale grid
//	experiments -exp all             everything
//
// -epochs scales run length (default 40, the paper's setting; use a small
// value for a quick pass). -csv DIR additionally writes each curve as
// CSV. -jobs N runs the multi-run grids (fig2, fig3, fig4, preempt,
// ablation, schedpolicy) on N parallel workers; results are identical at
// any N (the internal/exp sweep determinism contract). -policy narrows
// the schedpolicy grid to a comma-separated subset of the registered
// policies (default all). -clients narrows the scale grid's fleet sizes
// (default 100,1000,10000); scale always runs its cells serially so each
// cell's wall-clock measurement is honest, and with -csv it also emits
// BENCH_compute.json, the backend × workers wall-clock record the CI
// perf trajectory tracks.
//
// -cpuprofile FILE and -memprofile FILE capture pprof profiles of the
// selected experiments (CPU for the whole run; heap after a final GC),
// for digging into the compute hot path with `go tool pprof`.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/exp"
	"vcdl/internal/metrics"
)

// experiment is one registry entry: the single source of truth for the
// experiment's name, its run order within -exp all, and its dispatch
// target — usage text, validation and dispatch cannot drift.
type experiment struct {
	name string
	run  func(*runner) error
}

// registry lists the experiments in -exp all run order.
var registry = []experiment{
	{"table1", (*runner).table1},
	{"fig2", (*runner).fig2},
	{"fig3", (*runner).fig3},
	{"fig4", (*runner).fig4},
	{"fig5", (*runner).fig5},
	{"fig6", (*runner).fig6},
	{"storedb", (*runner).storedb},
	{"preempt", (*runner).preempt},
	{"ablation", (*runner).ablation},
	{"schedpolicy", (*runner).schedpolicy},
	{"scale", (*runner).scale},
}

// experimentNames returns the registry names in run order.
func experimentNames() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// lookup finds a registry entry by name.
func lookup(name string) (experiment, bool) {
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	expFlag := fs.String("exp", "all", "experiment to run ("+strings.Join(experimentNames(), "|")+"|all)")
	epochs := fs.Int("epochs", 40, "training epochs per run (paper: 40)")
	seed := fs.Int64("seed", 1, "experiment seed")
	csvDir := fs.String("csv", "", "directory to write CSV curves into (optional)")
	jobs := fs.Int("jobs", 1, "parallel workers for multi-run experiments (0 = all cores)")
	policyFlag := fs.String("policy", "all", "scheduling policies for -exp schedpolicy (comma-separated names, or all)")
	clientsFlag := fs.String("clients", "100,1000,10000", "fleet sizes for -exp scale (comma-separated client counts)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after GC) to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	runner := &runner{epochs: *epochs, seed: *seed, csvDir: *csvDir, jobs: *jobs, policies: *policyFlag, clients: *clientsFlag, out: stdout, errOut: stderr}
	var toRun []experiment
	if *expFlag == "all" {
		toRun = registry
	} else {
		for _, name := range strings.Split(*expFlag, ",") {
			e, ok := lookup(name)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q\nusage: experiments -exp %s|all [-epochs N] [-seed N] [-jobs N] [-csv DIR] [-policy LIST] [-clients LIST]\n",
					name, strings.Join(experimentNames(), "|"))
				return 2
			}
			toRun = append(toRun, e)
		}
	}
	for _, e := range toRun {
		fmt.Fprintf(stdout, "\n================ %s ================\n", e.name)
		if err := e.run(runner); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.name, err)
			return 1
		}
	}
	return 0
}

type runner struct {
	epochs   int
	seed     int64
	csvDir   string
	jobs     int
	policies string
	clients  string
	out      io.Writer
	errOut   io.Writer

	setupCache *exp.PaperSetup
	fig4Cache  []*exp.Result
}

func (r *runner) setup() (*exp.PaperSetup, error) {
	if r.setupCache == nil {
		s, err := exp.NewPaperSetup(r.seed, r.epochs)
		if err != nil {
			return nil, err
		}
		r.setupCache = s
	}
	return r.setupCache, nil
}

// sweep runs the specs on the -jobs worker pool.
func (r *runner) sweep(specs []*exp.Spec) ([]*exp.Result, error) {
	return exp.Sweep(context.Background(), specs, exp.Workers(r.jobs))
}

// selectedPolicies resolves -policy into registered policy names.
func (r *runner) selectedPolicies() ([]string, error) {
	if r.policies == "" || r.policies == "all" {
		return boinc.PolicyNames(), nil
	}
	var names []string
	for _, name := range strings.Split(r.policies, ",") {
		name = strings.TrimSpace(name)
		if _, err := boinc.NewPolicy(name); err != nil {
			return nil, err
		}
		names = append(names, name)
	}
	return names, nil
}

// writeFile writes content under the -csv directory (a no-op without
// -csv); like writeCSV, a failure fails the experiment.
func (r *runner) writeFile(filename, content string) error {
	if r.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		return fmt.Errorf("csv dir: %w", err)
	}
	path := filepath.Join(r.csvDir, filename)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", filename, err)
	}
	return nil
}

// writeRawCSV writes pre-rendered CSV content to DIR/name.csv.
func (r *runner) writeRawCSV(name, content string) error {
	return r.writeFile(name+".csv", content)
}

// writeCSV writes the series to DIR/name.csv; a failure fails the
// experiment (and the command exits non-zero).
func (r *runner) writeCSV(name string, series ...metrics.Series) error {
	var b strings.Builder
	for _, s := range series {
		b.WriteString(s.CSV())
		b.WriteByte('\n')
	}
	return r.writeRawCSV(name, b.String())
}

func printCurve(w io.Writer, res *exp.Result) {
	fmt.Fprintf(w, "-- %s  (%.2f h total, %d issued, %d reissued, %d timeouts)\n",
		res.Name, res.Hours, res.Issued, res.Reissued, res.Timeouts)
	for _, p := range res.Curve.Points {
		fmt.Fprintf(w, "   epoch %2d  %6.2f h  acc %.3f  [%.3f, %.3f]\n",
			p.Epoch, p.Hours, p.Value, p.Lo, p.Hi)
	}
}

func (r *runner) table1() error {
	fmt.Fprintln(r.out, "Table I: server and client instance configurations")
	rows := [][]string{}
	for _, it := range cloud.TableI() {
		rows = append(rows, []string{
			it.Name,
			fmt.Sprintf("%d", it.VCPU),
			fmt.Sprintf("%.1f", it.ClockGHz),
			fmt.Sprintf("%.0f", it.RAMGB),
			fmt.Sprintf("up to %.0f", it.BandwidthGbps),
			fmt.Sprintf("$%.3f", it.HourlyUSD),
			fmt.Sprintf("$%.3f", it.PreemptibleUSD),
		})
	}
	fmt.Fprint(r.out, metrics.Table(
		[]string{"instance", "vCPU", "GHz", "RAM(GB)", "net(Gbps)", "std/h", "spot/h"}, rows))
	fleet := append([]cloud.InstanceType{cloud.ServerInstance}, cloud.DefaultFleet(4)...)
	fmt.Fprintf(r.out, "P5C5T2 fleet: $%.2f/h standard, $%.2f/h preemptible (%.0f%% savings)\n",
		cloud.FleetCost(fleet, false), cloud.FleetCost(fleet, true), 100*cloud.Savings(fleet))
	return nil
}

func (r *runner) fig2() error {
	s, err := r.setup()
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, "Figure 2: validation accuracy vs training time, alpha=0.95")
	results, err := exp.Fig2(context.Background(), s, exp.Workers(r.jobs))
	if err != nil {
		return err
	}
	for _, res := range results {
		printCurve(r.out, res)
		if err := r.writeCSV("fig2_"+res.Name, res.Curve); err != nil {
			return err
		}
	}
	fmt.Fprintln(r.out, "expected shape: all configs converge to similar accuracy; P5C5T2 fastest.")
	return nil
}

func (r *runner) fig3() error {
	s, err := r.setup()
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, "Figure 3: training time (hours) vs simultaneous subtasks per client, alpha=0.95")
	rows, err := exp.Fig3(context.Background(), s, exp.Workers(r.jobs))
	if err != nil {
		return err
	}
	var table [][]string
	for _, row := range rows {
		cells := []string{row.Label}
		for _, h := range row.Hours {
			cells = append(cells, fmt.Sprintf("%.2f", h))
		}
		table = append(table, cells)
	}
	fmt.Fprint(r.out, metrics.Table([]string{"config", "T2", "T4", "T8"}, table))
	fmt.Fprintln(r.out, "expected shape: P1C3 dips at T4 and rises at T8; P3C3T8 beats P1C3T8 by ~3h;")
	fmt.Fprintln(r.out, "P5C5 fastest overall with the imbalance growing toward T8.")
	return nil
}

// fig4Results runs (or reuses) the Figure 4 sweep, which Figure 5 zooms.
func (r *runner) fig4Results() ([]*exp.Result, error) {
	if r.fig4Cache != nil {
		return r.fig4Cache, nil
	}
	s, err := r.setup()
	if err != nil {
		return nil, err
	}
	results, err := exp.Fig4(context.Background(), s, exp.Workers(r.jobs))
	if err != nil {
		return nil, err
	}
	r.fig4Cache = results
	return results, nil
}

func (r *runner) fig4() error {
	fmt.Fprintln(r.out, "Figure 4: effect of VC-ASGD hyperparameter alpha on P3C3T4")
	results, err := r.fig4Results()
	if err != nil {
		return err
	}
	for _, res := range results {
		printCurve(r.out, res)
		if err := r.writeCSV("fig4_"+res.Name, res.Curve); err != nil {
			return err
		}
	}
	fmt.Fprintln(r.out, "expected shape: alpha=0.7 fastest early; alpha=0.95 better late;")
	fmt.Fprintln(r.out, "alpha=0.999 far behind; Var (e/(e+1)) best overall with smallest spread.")
	return nil
}

func (r *runner) fig5() error {
	fmt.Fprintln(r.out, "Figure 5: zoomed views of Figure 4 (mid-training and late-training windows)")
	results, err := r.fig4Results()
	if err != nil {
		return err
	}
	// Scale the paper's 6-10h and 10-14h windows to the run length.
	total := 0.0
	for _, res := range results {
		if res.Hours > total {
			total = res.Hours
		}
	}
	windows := [][2]float64{{0.45 * total, 0.72 * total}, {0.72 * total, total}}
	for wi, w := range windows {
		fmt.Fprintf(r.out, "-- window %d: %.2f–%.2f h\n", wi+1, w[0], w[1])
		for _, res := range results {
			z := exp.ZoomWindow(res.Curve, w[0], w[1])
			for _, p := range z.Points {
				fmt.Fprintf(r.out, "   %-12s epoch %2d  %6.2f h  acc %.3f [%.3f, %.3f]\n",
					res.Name, p.Epoch, p.Hours, p.Value, p.Lo, p.Hi)
			}
		}
	}
	return nil
}

func (r *runner) fig6() error {
	s, err := r.setup()
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, "Figure 6: distributed (P5C5T2, Var alpha) vs single-instance serial training")
	serialEpochs := r.epochs / 4
	if serialEpochs < 2 {
		serialEpochs = 2
	}
	res, err := exp.Fig6(s, serialEpochs)
	if err != nil {
		return err
	}
	fmt.Fprintln(r.out, "-- validation")
	printSeriesPair(r.out, res.DistVal, res.SerialVal)
	fmt.Fprintln(r.out, "-- test")
	printSeriesPair(r.out, res.DistTest, res.SerialTest)
	if err := r.writeCSV("fig6_val", res.DistVal, res.SerialVal); err != nil {
		return err
	}
	if err := r.writeCSV("fig6_test", res.DistTest, res.SerialTest); err != nil {
		return err
	}
	fmt.Fprintln(r.out, "expected shape: single-instance above distributed with a shrinking gap;")
	fmt.Fprintln(r.out, "distributed curve smoother; test tracks validation.")
	return nil
}

func printSeriesPair(w io.Writer, dist, serial metrics.Series) {
	fmt.Fprintf(w, "   %-24s final %.3f at %.2f h\n", dist.Name, dist.FinalValue(), lastHours(dist))
	fmt.Fprintf(w, "   %-24s final %.3f at %.2f h\n", serial.Name, serial.FinalValue(), lastHours(serial))
	for _, p := range serial.Points {
		fmt.Fprintf(w, "   serial epoch %2d  %6.2f h  acc %.3f\n", p.Epoch, p.Hours, p.Value)
	}
	for _, p := range dist.Points {
		fmt.Fprintf(w, "   dist   epoch %2d  %6.2f h  acc %.3f\n", p.Epoch, p.Hours, p.Value)
	}
}

func lastHours(s metrics.Series) float64 {
	p, ok := s.Last()
	if !ok {
		return 0
	}
	return p.Hours
}

func (r *runner) storedb() error {
	fmt.Fprintln(r.out, "§IV-D: eventual-consistency (Redis-like) vs strong-consistency (MySQL-like) store")
	c := exp.CompareStores()
	fmt.Fprintf(r.out, "   per-update latency:   eventual %.2f s   strong %.2f s   ratio %.2fx\n",
		c.EventualUpdateSec, c.StrongUpdateSec, c.Ratio)
	fmt.Fprintf(r.out, "   CIFAR10-scale (2,000 updates):     +%.0f min with the strong store\n", c.CIFAR10OverheadMin)
	fmt.Fprintf(r.out, "   ImageNet-scale (1,600,000 updates): +%.0f h with the strong store\n", c.ImageNetOverheadH)
	fmt.Fprintln(r.out, "   paper: 0.87 s vs 1.29 s (1.5x), +14 min CIFAR10, +187 h ImageNet")
	return nil
}

// preemptProbs is the §IV-E grid; index 0 is the clean baseline.
var preemptProbs = []float64{0, 0.05, 0.10, 0.15, 0.20}

func (r *runner) preempt() error {
	fmt.Fprintln(r.out, "§IV-E: preemptible instances — binomial delay model and simulated grid")
	m := cloud.PreemptModel{TaskExecSeconds: 2.4 * 60, TimeoutSeconds: 5 * 60}
	var rows [][]string
	for _, p := range preemptProbs[1:] {
		m.P = p
		inc := m.ExpectedIncreaseSeconds(2000, 5, 2) / 60
		total := m.ExpectedTrainingSeconds(2000, 5, 2) / 3600
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", p*100),
			fmt.Sprintf("%.0f min", inc),
			fmt.Sprintf("%.1f h", total),
		})
	}
	fmt.Fprint(r.out, metrics.Table([]string{"p", "expected increase", "expected total"}, rows))
	fmt.Fprintln(r.out, "   paper: +50 min at p=0.05, +200 min at p=0.20 for P5C5T2 (ns=2000, to=5 min)")

	// End-to-end simulated grid, parallelized across -jobs workers.
	epochs := r.epochs / 4
	if epochs < 2 {
		epochs = 2
	}
	short, err := exp.NewPaperSetup(r.seed, epochs)
	if err != nil {
		return err
	}
	specs, err := exp.PreemptGridSpecs(short, preemptProbs)
	if err != nil {
		return err
	}
	results, err := r.sweep(specs)
	if err != nil {
		return err
	}
	base := results[0]
	fmt.Fprintf(r.out, "   simulated grid (%d epochs, clean baseline %.2f h):\n", epochs, base.Hours)
	var grid [][]string
	for i, res := range results[1:] {
		grid = append(grid, []string{
			fmt.Sprintf("%.0f%%", preemptProbs[i+1]*100),
			fmt.Sprintf("%.2f h", res.Hours),
			fmt.Sprintf("+%.0f min", (res.Hours-base.Hours)*60),
			fmt.Sprintf("%d", res.Timeouts),
			fmt.Sprintf("$%.2f", res.CostPreemptibleUSD),
		})
	}
	fmt.Fprint(r.out, metrics.Table([]string{"p", "total", "increase", "timeouts", "spot cost"}, grid))
	rough := results[1]
	fmt.Fprintf(r.out, "   cost at p=5%%: $%.2f standard vs $%.2f preemptible (%.0f%% saved)\n",
		rough.CostStandardUSD, rough.CostPreemptibleUSD,
		100*(1-rough.CostPreemptibleUSD/rough.CostStandardUSD))
	return nil
}

func (r *runner) ablation() error {
	epochs := r.epochs / 4
	if epochs < 3 {
		epochs = 3
	}
	s, err := exp.NewPaperSetup(r.seed, epochs)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "A1: update-rule ablation on P3C3T4 with 5%% preemption (%d epochs)\n", epochs)
	specs, err := exp.AblationSpecs(s)
	if err != nil {
		return err
	}
	results, err := r.sweep(specs)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, res := range results {
		rows = append(rows, []string{
			res.Name,
			fmt.Sprintf("%.3f", res.Curve.FinalValue()),
			fmt.Sprintf("%.2f h", res.Hours),
			fmt.Sprintf("%d", res.Timeouts),
		})
	}
	fmt.Fprint(r.out, metrics.Table([]string{"rule", "final acc", "time", "timeouts"}, rows))

	fmt.Fprintln(r.out, "A2: sticky files / compression ablation (bytes downloaded)")
	stickyOn, err := exp.New(s.Job, s.Corpus, exp.Topology(3, 3, 4))
	if err != nil {
		return err
	}
	stickyOff, err := exp.New(s.Job, s.Corpus, exp.Topology(3, 3, 4), exp.NoSticky())
	if err != nil {
		return err
	}
	pair, err := r.sweep([]*exp.Spec{stickyOn, stickyOff})
	if err != nil {
		return err
	}
	on, off := pair[0], pair[1]
	fmt.Fprintf(r.out, "   sticky on:  %8.1f MB downloaded\n", float64(on.BytesDownloaded)/1e6)
	fmt.Fprintf(r.out, "   sticky off: %8.1f MB downloaded (%.1fx more)\n",
		float64(off.BytesDownloaded)/1e6, float64(off.BytesDownloaded)/float64(on.BytesDownloaded))
	return nil
}

// schedpolicy sweeps every scheduling policy over the §IV-E preemption
// grid on P5C5T2 and emits a per-policy comparison (table plus CSV with
// -csv): the policy-ablation view the hard-coded scheduler could never
// produce.
func (r *runner) schedpolicy() error {
	policies, err := r.selectedPolicies()
	if err != nil {
		return err
	}
	epochs := r.epochs / 4
	if epochs < 2 {
		epochs = 2
	}
	fmt.Fprintf(r.out, "§III-B: scheduling-policy ablation on P5C5T2 across the §IV-E preemption grid (%d epochs)\n", epochs)
	s, err := exp.NewPaperSetup(r.seed, epochs)
	if err != nil {
		return err
	}
	specs, points, err := exp.SchedPolicySpecs(s, policies, preemptProbs)
	if err != nil {
		return err
	}
	results, err := r.sweep(specs)
	if err != nil {
		return err
	}

	// Table: one row per policy, training hours per preemption level,
	// plus the final accuracy under the heaviest storm.
	header := []string{"policy"}
	for _, p := range preemptProbs {
		header = append(header, fmt.Sprintf("p=%.0f%%", p*100))
	}
	maxP := preemptProbs[len(preemptProbs)-1]
	header = append(header, fmt.Sprintf("acc@p=%.0f%%", maxP*100))
	var rows [][]string
	var csv strings.Builder
	csv.WriteString("policy,preempt,hours,final_acc,issued,reissued,timeouts,cost_spot_usd\n")
	for pi, name := range policies {
		row := []string{name}
		for qi := range preemptProbs {
			res := results[pi*len(preemptProbs)+qi]
			pt := points[pi*len(preemptProbs)+qi]
			row = append(row, fmt.Sprintf("%.2f h", res.Hours))
			fmt.Fprintf(&csv, "%s,%.2f,%.4f,%.4f,%d,%d,%d,%.2f\n",
				pt.Policy, pt.Preempt, res.Hours, res.Curve.FinalValue(),
				res.Issued, res.Reissued, res.Timeouts, res.CostPreemptibleUSD)
		}
		row = append(row, fmt.Sprintf("%.3f", results[pi*len(preemptProbs)+len(preemptProbs)-1].Curve.FinalValue()))
		rows = append(rows, row)
	}
	fmt.Fprint(r.out, metrics.Table(header, rows))
	fmt.Fprintln(r.out, "expected shape: fifo issues work in queue order; paper first hands a client")
	fmt.Fprintln(r.out, "the shards it already caches (sticky files); random hands each request a")
	fmt.Fprintln(r.out, "seeded uniform draw of the eligible work, scattering shards; reliability-")
	fmt.Fprintln(r.out, "weighted steers storm retries toward reliable hosts.")
	return r.writeRawCSV("schedpolicy", csv.String())
}

// selectedClients resolves -clients into the scale grid's fleet sizes.
func (r *runner) selectedClients() ([]int, error) {
	var sizes []int
	for _, s := range strings.Split(r.clients, ",") {
		s = strings.TrimSpace(s)
		n, err := strconv.Atoi(s)
		if err != nil || n < exp.ScaleReplication {
			return nil, fmt.Errorf("bad -clients value %q (want integers >= %d)", s, exp.ScaleReplication)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
}

// scaleCell is one measured run of the scale grid, serialized into both
// the scale CSV and BENCH_compute.json.
type scaleCell struct {
	Clients          int     `json:"clients"`
	Backend          string  `json:"backend"`
	Workers          int     `json:"workers"`
	Replication      int     `json:"replication"`
	Epochs           int     `json:"epochs"`
	WallclockSeconds float64 `json:"wallclock_seconds"`
	VirtualHours     float64 `json:"virtual_hours"`
	FinalAccuracy    float64 `json:"final_acc"`
	// FidelityVsReal is |final_acc − real backend's final_acc| at the
	// same fleet size: 0 for the byte-identical backends, the surrogate's
	// accuracy distortion otherwise.
	FidelityVsReal float64 `json:"fidelity_vs_real"`
	// SpeedupVsReal is the real backend's wall clock over this cell's.
	SpeedupVsReal float64 `json:"speedup_vs_real"`
	Launched      int     `json:"launched"`
	Computed      int     `json:"computed"`
	CacheHits     int     `json:"cache_hits"`
}

// scale sweeps fleet size × compute backend into a wall-clock/fidelity
// grid (experiment S1): the figure behind the compute-backend layer.
// Every subtask is issued exp.ScaleReplication times and per-client work
// is constant, so the grid shows (a) the inline event loop's wall clock
// growing linearly with fleet size and replication, (b) cached refunding
// the redundancy, (c) parallel overlapping the rest with event
// processing, and (d) the surrogate's speed/fidelity trade. Cells run
// serially — never on the -jobs pool — so each wall-clock number
// measures one backend alone.
func (r *runner) scale() error {
	clients, err := r.selectedClients()
	if err != nil {
		return err
	}
	epochs := r.epochs / 10
	if epochs < 2 {
		epochs = 2
	}
	if epochs > 4 {
		epochs = 4
	}
	backends := exp.ScaleBackends()
	fmt.Fprintf(r.out, "S1: compute-backend scale grid — C ∈ %v × %d backends, replication %d, %d epochs\n",
		clients, len(backends), exp.ScaleReplication, epochs)

	var cells []scaleCell
	var csv strings.Builder
	csv.WriteString("clients,backend,workers,replication,epochs,wallclock_seconds,virtual_hours,final_acc,fidelity_vs_real,speedup_vs_real,launched,computed,cache_hits\n")
	for _, cn := range clients {
		job, corpus, err := exp.ScaleWorkload(r.seed, cn, epochs)
		if err != nil {
			return err
		}
		var rows [][]string
		var realCell *scaleCell
		for _, pt := range backends {
			pt.Clients = cn
			spec, err := exp.ScaleSpec(job, corpus, pt)
			if err != nil {
				return err
			}
			start := time.Now()
			res, err := exp.Run(spec)
			if err != nil {
				return fmt.Errorf("scale %s: %w", spec.Name(), err)
			}
			cell := scaleCell{
				Clients:          cn,
				Backend:          res.Compute.Backend,
				Workers:          res.Compute.Workers,
				Replication:      exp.ScaleReplication,
				Epochs:           epochs,
				WallclockSeconds: time.Since(start).Seconds(),
				VirtualHours:     res.Hours,
				FinalAccuracy:    res.Curve.FinalValue(),
				Launched:         res.Compute.Launched,
				Computed:         res.Compute.Computed,
				CacheHits:        res.Compute.CacheHits,
			}
			if realCell == nil {
				// ScaleBackends puts the real baseline first.
				realCell = &cell
				cell.SpeedupVsReal = 1
			} else {
				cell.FidelityVsReal = math.Abs(cell.FinalAccuracy - realCell.FinalAccuracy)
				cell.SpeedupVsReal = realCell.WallclockSeconds / cell.WallclockSeconds
			}
			cells = append(cells, cell)
			rows = append(rows, []string{
				cell.Backend,
				fmt.Sprintf("%d", cell.Workers),
				fmt.Sprintf("%.2f s", cell.WallclockSeconds),
				fmt.Sprintf("%.2fx", cell.SpeedupVsReal),
				fmt.Sprintf("%.3f", cell.FinalAccuracy),
				fmt.Sprintf("%.3f", cell.FidelityVsReal),
				fmt.Sprintf("%d/%d", cell.Computed, cell.Launched),
				fmt.Sprintf("%d", cell.CacheHits),
			})
			fmt.Fprintf(&csv, "%d,%s,%d,%d,%d,%.3f,%.4f,%.4f,%.4f,%.2f,%d,%d,%d\n",
				cell.Clients, cell.Backend, cell.Workers, cell.Replication, cell.Epochs,
				cell.WallclockSeconds, cell.VirtualHours, cell.FinalAccuracy,
				cell.FidelityVsReal, cell.SpeedupVsReal, cell.Launched, cell.Computed, cell.CacheHits)
		}
		fmt.Fprintf(r.out, "-- C=%d (%d subtasks x %d copies per epoch)\n", cn, cn, exp.ScaleReplication)
		fmt.Fprint(r.out, metrics.Table(
			[]string{"backend", "workers", "wall", "speedup", "final acc", "|Δacc|", "computed", "cache hits"}, rows))
	}
	fmt.Fprintln(r.out, "expected shape: real+cached cuts real's wall clock by about the replication factor")
	fmt.Fprintln(r.out, "(Δacc exactly 0); parallel and parallel+cached (what bare \"cached\" selects) divide")
	fmt.Fprintln(r.out, "what is left by the cores the host has, same Δacc of 0; surrogate does less math with")
	fmt.Fprintln(r.out, "a nonzero but bounded Δacc; real's wall clock grows with C.")

	if err := r.writeRawCSV("scale", csv.String()); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(map[string]any{"host": hostStamp(), "grid": cells}, "", "  ")
	if err != nil {
		return err
	}
	return r.writeFile("BENCH_compute.json", string(blob)+"\n")
}

// hostStamp names the machine a wall-clock record was taken on, with
// the fields of the stamp `go run ./bench` prints.
func hostStamp() map[string]any {
	h := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(), "cpu_model": "unknown", "git_commit": "unknown",
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h["cpu_model"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		commit, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = " + uncommitted changes"
			}
		}
		if commit != "" {
			h["git_commit"] = commit + dirty
		}
	}
	// `go run` and `go test` do not stamp VCS settings into the binary;
	// ask git, and accept that an exported tree has no commit to report.
	if h["git_commit"] == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h["git_commit"] = strings.TrimSpace(string(out))
		}
	}
	return h
}
