package scenario

import (
	"fmt"
	"io"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/live"
	"vcdl/internal/metrics"
	"vcdl/internal/obs"
	"vcdl/internal/ops"
	"vcdl/internal/vcsim"
)

// Report is the outcome of one scenario run.
type Report struct {
	Scenario *Scenario
	// Mode is the engine that executed the run.
	Mode   Mode
	Result *vcsim.Result
	// Trace records every applied event with its virtual time, plus the
	// run's closing summary. In sim mode the determinism contract is
	// that the same scenario and seed always produce an identical
	// trace; real-mode traces are wall-clock honest and only
	// approximately reproducible.
	Trace []string
	// WallclockSeconds is real elapsed time (excluded from Trace so the
	// sim trace stays deterministic).
	WallclockSeconds float64
	// Stats is the engine-independent summary the fidelity report
	// compares across modes.
	Stats  metrics.RunStats
	Checks []Check
	Passed bool
	// Metrics is the registry the run recorded into — Options.Metrics
	// when supplied, otherwise the engine's private one.
	Metrics *obs.Registry
}

// Options tunes a scenario run.
type Options struct {
	// Seed overrides the scenario's fleet seed when non-nil.
	Seed *int64
	// Progress, when non-nil, receives trace lines as they happen.
	Progress io.Writer
	// Mode selects the engine ("" = ModeSim).
	Mode Mode
	// TimeScale is the real-mode virtual→wall mapping in wall seconds
	// per virtual second (0 = live.DefaultTimeScale, one virtual minute
	// per wall second). Ignored in sim mode.
	TimeScale float64
	// WallLimit aborts a real-mode run that exceeds this wall-clock
	// budget (0 = 120s). Ignored in sim mode.
	WallLimit time.Duration
	// Spawn overrides how real-mode clients are launched (nil =
	// in-process goroutines; cmd/vcdl-scenario's -procs mode passes a
	// process spawner). Ignored in sim mode.
	Spawn live.SpawnFunc
	// Store overrides the real-mode parameter store backend ("eventual"
	// or "strong"; "" keeps the scenario's `store` key, which itself
	// defaults to eventual). Ignored in sim mode.
	Store string
	// Metrics receives the run's metric families (DESIGN.md §10). When
	// nil the engine still instruments itself with a private registry so
	// the RunStats percentile columns always fill; supply one to keep
	// the snapshot (Report.Metrics exposes whichever was used).
	Metrics *obs.Registry
	// Trace, when non-nil, records workunit lifecycle spans — virtual
	// seconds in sim mode, wall seconds in real mode.
	Trace *obs.Tracer
	// Log receives structured fleet/client events in real mode (nil =
	// silent). Ignored in sim mode, which has no daemons to narrate.
	Log *obs.Logger
	// ServerURLFile, when non-empty, receives the live server's base URL
	// as soon as the fleet is up (real mode only). CI smoke tests poll
	// the file, then curl /healthz and /ops against the running fleet.
	ServerURLFile string
}

// RunScenario validates, compiles and runs a scenario to completion on
// the engine opts.Mode selects.
func RunScenario(sc *Scenario, opts Options) (*Report, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	mode, err := ParseMode(string(opts.Mode))
	if err != nil {
		return nil, err
	}
	if err := sc.SupportsMode(mode); err != nil {
		return nil, err
	}
	if opts.Seed != nil {
		sc = &Scenario{
			Name:        sc.Name,
			Description: sc.Description,
			Fleet:       sc.Fleet,
			Events:      sc.Events,
			Asserts:     sc.Asserts,
		}
		sc.Fleet.Seed = *opts.Seed
	}
	if mode == ModeReal {
		return runReal(sc, opts)
	}
	return runSim(sc, opts)
}

// traceTo appends a line to the report's trace, echoing to Progress.
func (rep *Report) traceTo(progress io.Writer, line string) {
	rep.Trace = append(rep.Trace, line)
	if progress != nil {
		fmt.Fprintln(progress, line)
	}
}

// finishReport assembles the post-run bookkeeping shared by both
// engines: the closing trace line, the fidelity stats and the
// assertion checks. wallPerVirtual converts the registry's histogram
// values back into virtual seconds (1 in sim mode, where histograms
// are already virtual; the time scale in real mode, where they are
// wall-clock).
func (rep *Report) finish(sc *Scenario, opts Options, res *vcsim.Result, wallPerVirtual float64) {
	rep.Result = res
	rep.traceTo(opts.Progress, fmt.Sprintf("[%7.3fh] done: %d epochs, final accuracy %.4f, issued %d, reissued %d, timeouts %d",
		res.Hours, len(res.Curve.Points), res.Curve.FinalValue(), res.Issued, res.Reissued, res.Timeouts))
	rep.Stats = buildStats(sc, rep.Mode, res, rep.WallclockSeconds, rep.Metrics, wallPerVirtual)
	rep.Checks, rep.Passed = evaluate(sc.Asserts, res, rep.WallclockSeconds)
}

// runRegistry picks the registry a run records into: the caller's, or a
// private one so the fidelity stats always have percentiles to read.
func runRegistry(opts Options) *obs.Registry {
	if opts.Metrics != nil {
		return opts.Metrics
	}
	return obs.NewRegistry()
}

// buildStats extracts the engine-independent fidelity summary.
func buildStats(sc *Scenario, mode Mode, res *vcsim.Result, wallSec float64, reg *obs.Registry, wallPerVirtual float64) metrics.RunStats {
	seed := sc.Fleet.Seed
	if seed == 0 {
		seed = 1
	}
	toTarget := 0
	if target := sc.Fleet.TargetAccuracy; target > 0 {
		toTarget = -1
		for _, p := range res.Curve.Points {
			if p.Value >= target {
				toTarget = p.Epoch
				break
			}
		}
	}
	st := metrics.RunStats{
		Scenario:       sc.Name,
		Mode:           string(mode),
		Seed:           seed,
		Epochs:         len(res.Curve.Points),
		FinalAccuracy:  res.Curve.FinalValue(),
		EpochsToTarget: toTarget,
		Hours:          res.Hours,
		Issued:         res.Issued,
		Reissued:       res.Reissued,
		Timeouts:       res.Timeouts,
		AssignMix:      res.AssignMix,
		WallSeconds:    wallSec,
	}
	if reg != nil {
		if wallPerVirtual <= 0 {
			wallPerVirtual = 1
		}
		if h := reg.FindHistogram(boinc.MetricAssignWait); h != nil && h.Count() > 0 {
			st.AssignP50 = h.Quantile(0.5) / wallPerVirtual
			st.AssignP95 = h.Quantile(0.95) / wallPerVirtual
			st.AssignP99 = h.Quantile(0.99) / wallPerVirtual
		}
		hits := reg.CounterValue(boinc.MetricCacheHitFiles)
		if total := hits + reg.CounterValue(boinc.MetricCacheMissFiles); total > 0 {
			st.CacheHitRatio = float64(hits) / float64(total)
		}
	}
	return st
}

// runSim compiles the scenario onto the virtual-time simulator.
func runSim(sc *Scenario, opts Options) (*Report, error) {
	cfg, err := sc.BuildConfig()
	if err != nil {
		return nil, err
	}
	// Instrumentation is passive (DESIGN.md §10): the registry and tracer
	// observe the run without perturbing it, so the determinism contract
	// — identical trace with or without them — holds.
	reg := runRegistry(opts)
	cfg.Metrics = reg
	cfg.Trace = opts.Trace
	if opts.Progress != nil {
		// Narrate the run live through the simulator's observer hooks.
		// These lines go only to Progress, not into Trace: the trace
		// records injected events and stays the determinism contract's
		// compact fingerprint.
		cfg.Observer = vcsim.ObserverFuncs{
			Epoch: func(e vcsim.EpochEvent) {
				fmt.Fprintf(opts.Progress, "[%7.3fh] epoch %d closed: accuracy %.4f [%.4f, %.4f]\n",
					e.Hours, e.Summary.Epoch, e.Summary.Mean, e.Summary.Lo, e.Summary.Hi)
			},
			Timeout: func(e vcsim.TimeoutEvent) {
				fmt.Fprintf(opts.Progress, "[%7.3fh] deadline sweep expired %d result(s)\n", e.Hours, e.Expired)
			},
		}
	}
	s, err := vcsim.Start(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}

	rep := &Report{Scenario: sc, Mode: ModeSim, Metrics: reg}
	workload := sc.Fleet.Workload
	if workload == "" {
		workload = "quick"
	}
	lc := s.Config()
	rep.traceTo(opts.Progress, fmt.Sprintf("scenario %s: P%dC%dT%d %s workload, seed %d, %d events, %d assertions",
		sc.Name, lc.PServers, len(lc.ClientInstances), lc.TasksPerClient,
		workload, lc.Seed, len(sc.Events), len(sc.Asserts)))

	// Events flow through the shared ops core (DESIGN.md §12): the same
	// delegation the /ops admin API and the CLI drive, so every scenario
	// action lands in vcdl_ops_actions_total. The wrapping is passive —
	// pure delegation plus counter increments — so golden traces are
	// byte-identical with or without it.
	ctrl := ops.NewCore(s, reg)
	eng := s.Engine()
	trace := func(line string) { rep.traceTo(opts.Progress, line) }
	var evErr error
	for _, ev := range sc.Events {
		eng.ScheduleAt(ev.At(), func() {
			if err := dispatch(sc, ctrl, ev, eng.NowHours(), trace); evErr == nil {
				evErr = err
			}
		})
	}

	start := time.Now()
	res, err := s.Run()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if evErr != nil {
		return nil, evErr
	}
	rep.WallclockSeconds = time.Since(start).Seconds()
	rep.finish(sc, opts, res, 1)
	return rep, nil
}

// Summary renders the post-run report (trace is printed separately, via
// Options.Progress or Report.Trace).
func (rep *Report) Summary() string {
	res := rep.Result
	s := fmt.Sprintf("scenario %-24s %2d epochs  %7.2f h virtual  acc %.4f  (%.2fs wall, %s)\n",
		rep.Scenario.Name, len(res.Curve.Points), res.Hours, res.Curve.FinalValue(), rep.WallclockSeconds, rep.Mode)
	for _, c := range rep.Checks {
		s += "  " + c.String() + "\n"
	}
	if len(rep.Checks) == 0 {
		s += "  (no assertions)\n"
	} else if rep.Passed {
		s += fmt.Sprintf("  %d/%d assertions passed\n", len(rep.Checks), len(rep.Checks))
	} else {
		n := 0
		for _, c := range rep.Checks {
			if c.Pass {
				n++
			}
		}
		s += fmt.Sprintf("  %d/%d assertions passed\n", n, len(rep.Checks))
	}
	return s
}
