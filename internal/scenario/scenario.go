// Package scenario adds a declarative fault/churn scenario layer over
// both execution stacks: a scenario file names a fleet, a list of timed
// events (volunteer churn, preemption storms, region outages, straggler
// slowdowns, parameter-server failover, live scheduler reconfiguration)
// and a list of assertions over the run's metrics — opening the whole
// class of operational workloads the paper's fixed PnCnTn evaluation
// never exercises (DESIGN.md §5). The full grammar reference is
// docs/scenario-dsl.md.
//
// The same file compiles onto two engines, and both apply its events to
// an ops.Core, the control plane the /ops admin API and CLI also drive:
// ModeSim schedules the events on the deterministic simulator's virtual
// clock (vcsim.Sim hooks; identical trace per seed), and ModeReal maps
// them onto the wall clock against a live fleet — an in-process BOINC
// server plus real HTTP client daemons (internal/live) — with all
// reported times mapped back into virtual hours. Scenario.Modes
// classifies which engines a file supports, and both engines fill
// metrics.RunStats, the rows of the sim↔real fidelity CSV (DESIGN.md §9).
package scenario

import (
	"fmt"
	"strings"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/ops"
	"vcdl/internal/vcsim"
)

// Scenario is one parsed scenario file.
type Scenario struct {
	Name        string
	Description string
	Fleet       FleetSpec
	Events      []Event
	Asserts     []Assertion
}

// FleetSpec declares the simulated deployment a scenario starts from.
// Zero values take the workload's defaults.
type FleetSpec struct {
	// Workload selects the training job: "quick" (default; the test
	// suite's small CNN on a 500-sample synthetic corpus, seconds per
	// run) or "paper" (the paper-calibrated MiniResNetV2 setup).
	Workload string
	// PServers, Clients, Tasks are the paper's Pn/Cn/Tn.
	PServers int
	Clients  int
	Tasks    int
	// ClientType pins the fleet to one Table-I type ("" = round-robin
	// over all four client types).
	ClientType string
	// Epochs bounds the run; Subtasks overrides shards per epoch.
	Epochs   int
	Subtasks int
	Seed     int64
	// TimeoutSeconds is the initial BOINC result deadline.
	TimeoutSeconds float64
	// Regions spreads the fleet round-robin across regions.
	Regions []cloud.Region
	// StickyOff disables client-side input caching.
	StickyOff bool
	// AutoScale enables the §III-D dynamic PS pool, capped at MaxPServers.
	AutoScale   bool
	MaxPServers int
	// TargetAccuracy stops the run early when reached (0 = disabled).
	TargetAccuracy float64
	// Policy selects the scheduler's assignment policy by registry name
	// plus optional arguments, e.g. ["random", "7"]. Empty keeps the
	// default paper policy. Scenarios can also hot-swap mid-run with an
	// `at <time> policy <name>` event.
	Policy []string
	// Compute selects the compute backend by spec (core.BackendNames;
	// "" = real). cached/parallel change only wall clock, so traces and
	// assertions are backend-independent; surrogate trades curve
	// fidelity for capacity-run speed.
	Compute string
	// ComputeWorkers sizes the pool cached and parallel compute on
	// (0 = GOMAXPROCS).
	ComputeWorkers int
	// Replication issues this many copies of every subtask (0/1 = one).
	Replication int
	// Byzantine/ByzantineCount make the first ByzantineCount clients of
	// the fleet adversarial with the named behavior
	// (boinc.ByzantineBehaviors). Both engines support it; pair it with
	// `replicate` so quorum validation has honest copies to agree on.
	Byzantine      string
	ByzantineCount int
	// Procs asks the real-mode driver to run clients as separate OS
	// processes instead of in-process goroutines (real mode only; the
	// CLI's -procs flag is the same switch).
	Procs bool
	// Blobs enables the content-addressed data plane: inputs travel by
	// digest over /blob/{digest} with resumable verified transfers and
	// per-client caches that survive rejoin (real mode only — the
	// simulator has no byte-level data plane; DESIGN.md §11).
	Blobs bool
	// Checkpoint persists epoch checkpoints through the PS group's store
	// so ps-fail restores parameters instead of restarting the epoch
	// (real mode only).
	Checkpoint bool
	// StoreKind selects the parameter store backend: "eventual"
	// (default) or "strong" (real mode only; the CLI's -store flag
	// overrides it).
	StoreKind string
	// Shards stripes the live server's scheduler state so concurrent
	// requests on different stripes never contend (0/1 = single stripe;
	// real mode only — the simulator is single-threaded; DESIGN.md §14).
	Shards int
	// AdmitMax/AdmitQueue bound concurrent scheduler+upload handling:
	// beyond AdmitMax running and AdmitQueue waiting, requests are shed
	// with 429 + Retry-After (0 = unlimited; real mode only).
	AdmitMax   int
	AdmitQueue int
}

// Event is one timed injection against a running engine, simulated or
// real: both engines wrap themselves in an ops.Core, the control plane
// the /ops admin API and the CLI also drive, and apply every event to it.
type Event interface {
	// At is the virtual time (seconds) the event fires. The sim engine
	// fires it on the virtual clock; the real engine maps it onto the
	// wall clock through the run's time scale.
	At() float64
	// Desc renders the event for listings and validation output.
	Desc() string
	// Apply mutates the running engine through its ops core and returns
	// a trace line fragment describing what happened.
	Apply(s *ops.Core) string
}

// regionByName resolves a region name.
func regionByName(name string) (cloud.Region, bool) {
	for _, r := range cloud.Regions() {
		if string(r) == name {
			return r, true
		}
	}
	return "", false
}

// Validate performs the semantic checks that the line parser cannot.
func (sc *Scenario) Validate() error {
	var errs []string
	if sc.Name == "" {
		errs = append(errs, "missing 'scenario <name>' header")
	}
	f := sc.Fleet
	switch f.Workload {
	case "", "quick", "paper":
	default:
		errs = append(errs, fmt.Sprintf("unknown workload %q (want quick or paper)", f.Workload))
	}
	if f.ClientType != "" {
		if _, ok := cloud.InstanceByName(f.ClientType); !ok {
			errs = append(errs, fmt.Sprintf("unknown client type %q", f.ClientType))
		}
	}
	if len(f.Policy) > 0 {
		if _, err := boinc.NewPolicy(f.Policy[0], f.Policy[1:]...); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if f.ByzantineCount > 0 && !boinc.ValidByzantine(f.Byzantine) {
		errs = append(errs, fmt.Sprintf("unknown byzantine behavior %q (want one of %v)", f.Byzantine, boinc.ByzantineBehaviors))
	}
	if err := core.ValidateBackendSpec(f.Compute); err != nil {
		errs = append(errs, err.Error())
	}
	prev := 0.0
	for _, ev := range sc.Events {
		if ev.At() < 0 {
			errs = append(errs, fmt.Sprintf("event %q fires at negative time", ev.Desc()))
		}
		if ev.At() < prev {
			errs = append(errs, fmt.Sprintf("event %q fires before the preceding event (events must be time-ordered)", ev.Desc()))
		}
		prev = ev.At()
	}
	for _, a := range sc.Asserts {
		if err := a.check(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("scenario %s: %s", sc.Name, strings.Join(errs, "; "))
	}
	return nil
}

// BuildReal lowers the fleet spec for the real-mode driver: the same
// simulation config BuildConfig produces (the real engine reads the
// workload, fleet, timeout and policy from it) plus the serializable
// model spec the live server publishes as model.json. Only the quick
// workload has a wire-able spec; paper-workload scenarios are sim-only.
func (sc *Scenario) BuildReal() (vcsim.Config, core.ModelSpec, error) {
	if w := sc.Fleet.Workload; w != "" && w != "quick" {
		return vcsim.Config{}, core.ModelSpec{}, fmt.Errorf("scenario %s: workload %q has no real-mode lowering", sc.Name, w)
	}
	cfg, err := sc.BuildConfig()
	if err != nil {
		return vcsim.Config{}, core.ModelSpec{}, err
	}
	dc := data.DefaultSynthConfig()
	spec := core.SmallCNNSpec(dc.C, dc.H, dc.W, dc.Classes)
	builder, err := spec.Builder()
	if err != nil {
		return vcsim.Config{}, core.ModelSpec{}, err
	}
	// Server, evaluator and clients all build the architecture from the
	// published spec, so they cannot drift from one another.
	cfg.Job.Builder = builder
	return cfg, spec, nil
}

// BuildConfig turns the fleet spec into a runnable simulation config.
func (sc *Scenario) BuildConfig() (vcsim.Config, error) {
	f := sc.Fleet
	pn, cn, tn := f.PServers, f.Clients, f.Tasks
	if pn < 1 {
		pn = 1
	}
	if cn < 1 {
		cn = 3
	}
	if tn < 1 {
		tn = 2
	}
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}

	var job core.JobConfig
	var corpus *data.Corpus
	switch f.Workload {
	case "", "quick":
		epochs := f.Epochs
		if epochs < 1 {
			epochs = 4
		}
		dc := data.DefaultSynthConfig()
		dc.NTrain, dc.NVal, dc.NTest = 500, 200, 200
		dc.NoiseStd = 0.4
		dc.Seed = seed
		var err error
		corpus, err = data.GenerateSynth(dc)
		if err != nil {
			return vcsim.Config{}, err
		}
		job = core.DefaultJobConfig(nn.SmallCNNBuilder(dc.C, dc.H, dc.W, dc.Classes))
		job.Subtasks = 10
		job.MaxEpochs = epochs
		job.BatchSize = 25
		job.LocalPasses = 2
		job.LearningRate = 0.01
		job.ValSubset = 100
		job.Seed = seed
	case "paper":
		epochs := f.Epochs
		if epochs < 1 {
			epochs = 40
		}
		setup, err := vcsim.NewPaperSetup(seed, epochs)
		if err != nil {
			return vcsim.Config{}, err
		}
		job, corpus = setup.Job, setup.Corpus
	default:
		return vcsim.Config{}, fmt.Errorf("scenario %s: unknown workload %q", sc.Name, f.Workload)
	}
	if f.Subtasks > 0 {
		job.Subtasks = f.Subtasks
	}
	if f.TargetAccuracy > 0 {
		job.TargetAccuracy = f.TargetAccuracy
	}

	cfg := vcsim.DefaultConfig(job, corpus, pn, cn, tn)
	if f.ClientType != "" {
		it, ok := cloud.InstanceByName(f.ClientType)
		if !ok {
			return vcsim.Config{}, fmt.Errorf("scenario %s: unknown client type %q", sc.Name, f.ClientType)
		}
		fleet := make([]cloud.InstanceType, cn)
		for i := range fleet {
			fleet[i] = it
		}
		cfg.ClientInstances = fleet
	}
	cfg.Regions = append([]cloud.Region(nil), f.Regions...)
	if f.TimeoutSeconds > 0 {
		cfg.TimeoutSeconds = f.TimeoutSeconds
	}
	cfg.DisableSticky = f.StickyOff
	cfg.AutoScalePS = f.AutoScale
	cfg.MaxPServers = f.MaxPServers
	cfg.Backend = f.Compute
	cfg.ComputeWorkers = f.ComputeWorkers
	cfg.Replication = f.Replication
	cfg.Byzantine = f.Byzantine
	cfg.ByzantineClients = f.ByzantineCount
	cfg.Seed = seed
	if len(f.Policy) > 0 {
		p, err := boinc.NewPolicy(f.Policy[0], f.Policy[1:]...)
		if err != nil {
			return vcsim.Config{}, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		cfg.Policy = p
	}
	return cfg, nil
}
