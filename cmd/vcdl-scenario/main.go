// Command vcdl-scenario runs, compares and validates declarative
// fault/churn scenarios (DESIGN.md §5, §9; grammar in
// docs/scenario-dsl.md):
//
//	vcdl-scenario run [-mode sim|real] [-seed N] [-trace] [-procs] [-speedup X] <scenario.txt>...
//	vcdl-scenario compare [-seed N] [-speedup X] [-csv out.csv] <scenario.txt>...
//	vcdl-scenario validate <scenario.txt>...
//	vcdl-scenario gen [-model M] [-seed N] [-o out.txt]
//	vcdl-scenario ops [-server URL | -url-file FILE] [command...]
//
// run executes each scenario — on the virtual-time simulator (-mode
// sim, the default) or against a live fleet of real HTTP clients
// (-mode real; -procs isolates each client in its own OS process) —
// and prints its assertion results; the exit code is 0 when every
// assertion of every scenario passes, 1 otherwise. compare runs sim
// and real back-to-back and emits a fidelity CSV so sim↔real
// divergence becomes a reported quantity. validate parses and checks
// the files without running anything (exit 2 on any malformed
// scenario) and reports which mode(s) each file supports. gen emits a
// seeded scenario from an operational model (churn, diurnal,
// flash-crowd, byzantine) — same model+seed, byte-identical file. ops
// is the admin console for a live fleet (docs/ops-api.md): one-shot or
// interactive, driving the same /ops endpoints scenario events and
// curl use. The bundled scenario library lives in examples/scenarios/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vcdl/internal/live"
	"vcdl/internal/metrics"
	"vcdl/internal/obs"
	"vcdl/internal/scenario"
)

func main() {
	// Hidden client mode: -procs re-execs this binary as the volunteer
	// client daemons, so process-isolated fleets need no second binary.
	if len(os.Args) > 1 && os.Args[1] == "_client" {
		os.Exit(clientMain(os.Args[2:], os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: vcdl-scenario <command> [flags] <scenario-file>...

commands:
  run       execute scenarios and check their assertions
            flags: -mode sim|real (engine), -seed N (override scenario seed),
                   -trace (print event trace), -procs (real mode: clients as
                   OS processes), -store eventual|strong (real mode: override
                   the parameter store backend), -speedup X (real mode: X
                   virtual seconds per wall second, default 60), -wall-limit D
                   (real-mode wall-clock budget per scenario, default 2m),
                   -metrics FILE (write per-run metric snapshots as JSON),
                   -v (real mode: structured fleet/client logging to stderr)
  compare   run each scenario in sim and real mode back-to-back and emit
            a sim<->real fidelity CSV (-csv FILE writes it, default stdout;
            -seed/-speedup/-wall-limit as for run)
  validate  parse and validate scenario files without running them, and
            report which mode(s) each supports
  gen       emit a seeded scenario file from an operational model
            flags: -model churn|diurnal|flash-crowd|byzantine, -seed N,
                   -clients N, -behavior B (byzantine), -o FILE (default
                   stdout); same model+seed => byte-identical output
  ops       drive a live fleet's /ops admin API (one-shot command, or an
            interactive console when no command is given)
            flags: -server URL or -url-file FILE (from 'run -url-file'),
                   -timeout D; try 'ops -server URL help'
`)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "compare":
		return cmdCompare(args[1:], stdout, stderr)
	case "validate":
		return cmdValidate(args[1:], stdout, stderr)
	case "gen":
		return cmdGen(args[1:], stdout, stderr)
	case "ops":
		return cmdOps(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "vcdl-scenario: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
}

// realFlags are the knobs shared by run -mode real and compare.
type realFlags struct {
	speedup   *float64
	wallLimit *time.Duration
	procs     *bool
	storeKind *string
}

func addRealFlags(fs *flag.FlagSet) realFlags {
	return realFlags{
		speedup:   fs.Float64("speedup", 60, "real mode: virtual seconds that elapse per wall second"),
		wallLimit: fs.Duration("wall-limit", 2*time.Minute, "real mode: wall-clock budget per scenario"),
		procs:     fs.Bool("procs", false, "real mode: run clients as separate OS processes"),
		storeKind: fs.String("store", "", "real mode: parameter store backend, eventual or strong (empty = scenario's 'store' key, default eventual)"),
	}
}

// options lowers the shared flags into scenario run options.
func (rf realFlags) options(mode scenario.Mode, seed int64, trace bool, stdout io.Writer) (scenario.Options, error) {
	opts := scenario.Options{Mode: mode}
	if seed != 0 {
		opts.Seed = &seed
	}
	if trace {
		opts.Progress = stdout
	}
	if *rf.speedup <= 0 {
		return opts, fmt.Errorf("-speedup %v: must be > 0", *rf.speedup)
	}
	opts.TimeScale = 1 / *rf.speedup
	opts.WallLimit = *rf.wallLimit
	switch *rf.storeKind {
	case "", "eventual", "strong":
		opts.Store = *rf.storeKind
	default:
		return opts, fmt.Errorf("-store %q: want eventual or strong", *rf.storeKind)
	}
	if *rf.procs {
		spawn, err := selfSpawner()
		if err != nil {
			return opts, fmt.Errorf("-procs: %w", err)
		}
		opts.Spawn = spawn
	}
	return opts, nil
}

// forScenario specializes the run options for one file: a scenario
// declaring `procs on` gets the process spawner even without -procs.
func (rf realFlags) forScenario(opts scenario.Options, sc *scenario.Scenario) (scenario.Options, error) {
	if sc.Fleet.Procs && opts.Spawn == nil {
		spawn, err := selfSpawner()
		if err != nil {
			return opts, fmt.Errorf("%s declares 'procs on': %w", sc.Name, err)
		}
		opts.Spawn = spawn
	}
	return opts, nil
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "override the scenario's seed (0 = use the file's)")
	trace := fs.Bool("trace", false, "print the event trace while running")
	modeFlag := fs.String("mode", "sim", "execution engine: sim (virtual time) or real (live fleet)")
	metricsPath := fs.String("metrics", "", "write each run's metric snapshot to this file as JSON")
	urlFile := fs.String("url-file", "", "real mode: write the live server's base URL to this file as soon as the fleet is up (lets 'ops -url-file' and curl attach)")
	verbose := fs.Bool("v", false, "structured key=value logging to stderr (real-mode fleet and client daemons)")
	rf := addRealFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "vcdl-scenario run: no scenario files given")
		usage(stderr)
		return 2
	}
	mode, err := scenario.ParseMode(*modeFlag)
	if err != nil {
		fmt.Fprintf(stderr, "vcdl-scenario run: %v\n", err)
		return 2
	}
	opts, err := rf.options(mode, *seed, *trace, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "vcdl-scenario run: %v\n", err)
		return 2
	}
	if *verbose {
		opts.Log = obs.NewLogger(stderr, obs.LevelDebug)
	}
	opts.ServerURLFile = *urlFile
	exit := 0
	// snapshots collects one {scenario, mode, metrics} object per run for
	// -metrics; each run records into its own fresh registry so families
	// never bleed between scenario files.
	type runSnapshot struct {
		Scenario string               `json:"scenario"`
		Mode     string               `json:"mode"`
		Metrics  []obs.MetricSnapshot `json:"metrics"`
	}
	var snapshots []runSnapshot
	for _, file := range files {
		sc, err := scenario.Load(file)
		if err != nil {
			fmt.Fprintf(stderr, "vcdl-scenario: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "== %s", sc.Name)
		if sc.Description != "" {
			fmt.Fprintf(stdout, " — %s", sc.Description)
		}
		fmt.Fprintln(stdout)
		fileOpts, err := rf.forScenario(opts, sc)
		if err != nil {
			fmt.Fprintf(stderr, "vcdl-scenario: %s: %v\n", file, err)
			return 2
		}
		fileOpts.Metrics = obs.NewRegistry()
		rep, err := scenario.RunScenario(sc, fileOpts)
		if err != nil {
			fmt.Fprintf(stderr, "vcdl-scenario: %s: %v\n", file, err)
			return 1
		}
		fmt.Fprint(stdout, rep.Summary())
		fmt.Fprint(stdout, metricsSummary(rep.Stats))
		if !rep.Passed {
			exit = 1
		}
		snapshots = append(snapshots, runSnapshot{
			Scenario: sc.Name, Mode: string(rep.Mode), Metrics: rep.Metrics.Snapshot()})
	}
	if *metricsPath != "" {
		blob, err := json.MarshalIndent(snapshots, "", "  ")
		if err == nil {
			err = os.WriteFile(*metricsPath, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "vcdl-scenario run: write %s: %v\n", *metricsPath, err)
			return 1
		}
		fmt.Fprintf(stdout, "metric snapshots written to %s (%d runs)\n", *metricsPath, len(snapshots))
	}
	return exit
}

// metricsSummary renders the post-run observability table: the
// scheduler quantities the fidelity CSV folds in, in virtual seconds
// for both engines.
func metricsSummary(st metrics.RunStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  assign wait p50/p95/p99  %8.2f / %8.2f / %8.2f  virtual s\n",
		st.AssignP50, st.AssignP95, st.AssignP99)
	fmt.Fprintf(&b, "  cache hit ratio          %8.3f\n", st.CacheHitRatio)
	fmt.Fprintf(&b, "  issued / reissued / timeouts  %d / %d / %d\n",
		st.Issued, st.Reissued, st.Timeouts)
	return b.String()
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 0, "override the scenario's seed (0 = use the file's)")
	csvPath := fs.String("csv", "", "write the fidelity CSV to this file (default stdout)")
	rf := addRealFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "vcdl-scenario compare: no scenario files given")
		usage(stderr)
		return 2
	}
	exit := 0
	var rows []metrics.RunStats
	for _, file := range files {
		sc, err := scenario.Load(file)
		if err != nil {
			fmt.Fprintf(stderr, "vcdl-scenario: %v\n", err)
			return 2
		}
		for _, mode := range []scenario.Mode{scenario.ModeSim, scenario.ModeReal} {
			if err := sc.SupportsMode(mode); err != nil {
				fmt.Fprintf(stderr, "vcdl-scenario compare: skipping: %v\n", err)
				continue
			}
			opts, err := rf.options(mode, *seed, false, stdout)
			if err != nil {
				fmt.Fprintf(stderr, "vcdl-scenario compare: %v\n", err)
				return 2
			}
			if mode == scenario.ModeReal {
				if opts, err = rf.forScenario(opts, sc); err != nil {
					fmt.Fprintf(stderr, "vcdl-scenario compare: %s: %v\n", file, err)
					return 2
				}
			}
			rep, err := scenario.RunScenario(sc, opts)
			if err != nil {
				fmt.Fprintf(stderr, "vcdl-scenario: %s (%s): %v\n", file, mode, err)
				return 1
			}
			fmt.Fprint(stdout, rep.Summary())
			if !rep.Passed {
				exit = 1
			}
			rows = append(rows, rep.Stats)
		}
	}
	csv := metrics.FidelityCSV(rows)
	if *csvPath == "" {
		fmt.Fprint(stdout, csv)
	} else if err := os.WriteFile(*csvPath, []byte(csv), 0o644); err != nil {
		fmt.Fprintf(stderr, "vcdl-scenario compare: write %s: %v\n", *csvPath, err)
		return 1
	} else {
		fmt.Fprintf(stdout, "fidelity CSV written to %s (%d runs)\n", *csvPath, len(rows))
	}
	return exit
}

func cmdValidate(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "vcdl-scenario validate: no scenario files given")
		usage(stderr)
		return 2
	}
	exit := 0
	for _, file := range args {
		sc, err := scenario.Load(file)
		if err != nil {
			fmt.Fprintf(stderr, "INVALID  %s\n%v\n", file, err)
			exit = 2
			continue
		}
		modes, reasons := sc.Modes()
		if len(modes) == 0 {
			fmt.Fprintf(stderr, "INVALID  %s\nscenario %s: no engine can run it: sim-blocking %v; real-blocking %v\n",
				file, sc.Name, reasons[scenario.ModeSim], reasons[scenario.ModeReal])
			exit = 2
			continue
		}
		names := make([]string, len(modes))
		for i, m := range modes {
			names[i] = string(m)
		}
		fmt.Fprintf(stdout, "OK       %s  (%s: %d events, %d assertions) [modes: %s]\n",
			file, sc.Name, len(sc.Events), len(sc.Asserts), strings.Join(names, " "))
	}
	return exit
}

// selfSpawner launches clients by re-exec'ing this binary in its hidden
// _client mode, killed abruptly when the harness cancels their context.
func selfSpawner() (live.SpawnFunc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cannot resolve own binary: %w", err)
	}
	return func(ctx context.Context, cfg live.ClientConfig) (<-chan error, error) {
		return live.SpawnProcess(ctx, exe, cfg)
	}, nil
}

// clientMain is the hidden `vcdl-scenario _client` entry point.
func clientMain(args []string, stderr io.Writer) int {
	if err := live.ClientProcMain(args); err != nil {
		fmt.Fprintf(stderr, "vcdl-scenario _client: %v\n", err)
		return 1
	}
	return 0
}
