// Package exp is the composable experiment API over the vcsim simulator
// (DESIGN.md §6). It replaces ad-hoc vcsim.Config struct mutation with
// three pillars:
//
//  1. Functional options: exp.New(job, corpus, exp.Topology(3, 3, 4),
//     exp.Alpha(sched), exp.Preempt(0.05), ...) builds a validated,
//     immutable Spec that lowers to the simulator's internal
//     representation (vcsim.Config).
//  2. Observers: exp.Observe attaches vcsim.Observer sinks that stream
//     epoch/assimilation/preemption/timeout events out of the run while
//     it executes, instead of spelunking the final Result.
//  3. A sweep runner: exp.Sweep executes independent specs on a worker
//     pool sharing the read-only corpus, returning results in input
//     order with per-run determinism preserved (same seed => identical
//     Result regardless of worker count).
//
// The paper's multi-run evaluations (Figures 2-4, the preemption grid,
// the ablations) are expressed on top of these in figures.go.
package exp

import (
	"fmt"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/obs"
	"vcdl/internal/store"
	"vcdl/internal/vcsim"
)

// Facade aliases: callers of the experiment API only import exp, not the
// simulator internals.
type (
	// Result is one run's outcome (vcsim.Result).
	Result = vcsim.Result
	// PaperSetup bundles the corpus and job shared by the paper's runs.
	PaperSetup = vcsim.PaperSetup
	// Observer receives run events; see vcsim.Observer for the contract.
	Observer = vcsim.Observer
	// ObserverFuncs adapts plain functions to Observer.
	ObserverFuncs = vcsim.ObserverFuncs
	// AssimEvent, EpochEvent, PreemptEvent and TimeoutEvent are the
	// observer event payloads.
	AssimEvent   = vcsim.AssimEvent
	EpochEvent   = vcsim.EpochEvent
	PreemptEvent = vcsim.PreemptEvent
	TimeoutEvent = vcsim.TimeoutEvent
)

// NewPaperSetup generates the paper workload (see vcsim.NewPaperSetup).
func NewPaperSetup(seed int64, epochs int) (*PaperSetup, error) {
	return vcsim.NewPaperSetup(seed, epochs)
}

// Spec is one validated, immutable experiment specification. Build it
// with New; lower it with Config; run it with Run or Sweep. A Spec is
// safe to share between goroutines — Config hands every caller an
// independent copy of the internal representation.
type Spec struct {
	name string
	cfg  vcsim.Config
	obs  []vcsim.Observer
	// newStore builds a private store backend per Config lowering (see
	// StoreBackend); nil keeps the default eventual store.
	newStore func() store.Store
	// policyName/policyArgs select the scheduling policy (WithPolicy);
	// empty keeps the scheduler's default paper policy. The policy is
	// instantiated per Config lowering so workers never share one.
	policyName string
	policyArgs []string
	// metrics/trace are the observability attachments (WithMetrics,
	// WithTrace); both lower into vcsim.Config.
	metrics *obs.Registry
	trace   *obs.Tracer
}

// New builds a Spec for running job on corpus. Without options the spec
// is the paper-calibrated P1C3T2 fleet; options adjust topology, fault
// model, backends and instrumentation. The returned Spec is validated
// and immutable.
func New(job core.JobConfig, corpus *data.Corpus, opts ...Option) (*Spec, error) {
	if corpus == nil {
		return nil, fmt.Errorf("exp: nil corpus")
	}
	s := &Spec{cfg: vcsim.DefaultConfig(job, corpus, 1, 3, 2)}
	for _, opt := range opts {
		if err := opt(s); err != nil {
			return nil, fmt.Errorf("exp: %w", err)
		}
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return s, nil
}

// validate holds the cross-option invariants an individual option cannot
// check.
func (s *Spec) validate() error {
	cfg := &s.cfg
	if err := cfg.Job.Validate(); err != nil {
		return err
	}
	switch {
	case len(cfg.ClientInstances) == 0:
		return fmt.Errorf("empty client fleet")
	case cfg.AutoScalePS && cfg.MaxPServers > 0 && cfg.MaxPServers < cfg.PServers:
		return fmt.Errorf("MaxPServers %d < PServers %d", cfg.MaxPServers, cfg.PServers)
	}
	return nil
}

// Name returns the spec's display name ("" when unset; the run then
// reports the PnCnTn topology).
func (s *Spec) Name() string { return s.name }

// Config lowers the spec to the simulator's internal representation. The
// returned value is an independent copy: mutating it (or its slices)
// does not affect the Spec, so specs can be lowered concurrently.
func (s *Spec) Config() vcsim.Config {
	cfg := s.cfg
	cfg.Name = s.name
	cfg.ClientInstances = append([]cloud.InstanceType(nil), s.cfg.ClientInstances...)
	if s.newStore != nil {
		cfg.Store = s.newStore()
	}
	if s.policyName != "" {
		// Validated at option time; a registry change between then and
		// now is a programming error worth failing loudly on.
		p, err := boinc.NewPolicy(s.policyName, s.policyArgs...)
		if err != nil {
			panic("exp: lowering policy " + s.policyName + ": " + err.Error())
		}
		cfg.Policy = p
	}
	switch len(s.obs) {
	case 0:
	case 1:
		cfg.Observer = s.obs[0]
	default:
		cfg.Observer = vcsim.Observers(append([]vcsim.Observer(nil), s.obs...))
	}
	cfg.Metrics = s.metrics
	cfg.Trace = s.trace
	return cfg
}

// Run executes one spec to completion on the simulator, on the calling
// goroutine. Errors are returned unwrapped; Sweep (and other callers) add
// the run label.
func Run(s *Spec) (*Result, error) { return run(s, 0) }

// run is Run with the compute-pool size a spec that did not choose one
// gets (0: the backend's own default, GOMAXPROCS).
func run(s *Spec, computeWorkers int) (*Result, error) {
	if s == nil {
		return nil, fmt.Errorf("exp: nil spec")
	}
	cfg := s.Config()
	if cfg.ComputeWorkers == 0 {
		cfg.ComputeWorkers = computeWorkers
	}
	return vcsim.Run(cfg)
}
