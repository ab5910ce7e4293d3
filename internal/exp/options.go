package exp

import (
	"fmt"

	"vcdl/internal/baseline"
	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/obs"
	"vcdl/internal/opt"
	"vcdl/internal/store"
)

// Option configures one aspect of a Spec under construction. Options are
// applied in order; later options win. An option returning an error
// aborts New.
type Option func(*Spec) error

// Name labels the run; results and curves report it instead of the
// default PnCnTn topology string.
func Name(name string) Option {
	return func(s *Spec) error {
		s.name = name
		return nil
	}
}

// Topology sets the paper's PnCnTn shape: pn parameter servers, cn
// round-robin Table-I clients, tn simultaneous subtasks per client.
func Topology(pn, cn, tn int) Option {
	return func(s *Spec) error {
		if pn < 1 || cn < 1 || tn < 1 {
			return fmt.Errorf("topology P%dC%dT%d: all counts must be >= 1", pn, cn, tn)
		}
		s.cfg.PServers = pn
		s.cfg.ClientInstances = cloud.DefaultFleet(cn)
		s.cfg.TasksPerClient = tn
		return nil
	}
}

// Fleet pins the client fleet to explicit instance types, overriding
// Topology's round-robin choice (the client count becomes len(fleet)).
func Fleet(fleet ...cloud.InstanceType) Option {
	return func(s *Spec) error {
		if len(fleet) == 0 {
			return fmt.Errorf("empty fleet")
		}
		s.cfg.ClientInstances = append([]cloud.InstanceType(nil), fleet...)
		return nil
	}
}

// Alpha sets the VC-ASGD hyperparameter schedule.
func Alpha(sched opt.Schedule) Option {
	return func(s *Spec) error {
		if sched == nil {
			return fmt.Errorf("nil alpha schedule")
		}
		s.cfg.Job.Alpha = sched
		return nil
	}
}

// Epochs bounds the run length, overriding the job's MaxEpochs.
func Epochs(n int) Option {
	return func(s *Spec) error {
		if n < 1 {
			return fmt.Errorf("epochs %d < 1", n)
		}
		s.cfg.Job.MaxEpochs = n
		return nil
	}
}

// Seed sets the run seed (engine RNG, model init, shard shuffling).
func Seed(seed int64) Option {
	return func(s *Spec) error {
		s.cfg.Seed = seed
		s.cfg.Job.Seed = seed
		return nil
	}
}

// Preempt sets the per-subtask-execution probability that the client
// instance is reclaimed before uploading (§IV-E's p).
func Preempt(p float64) Option {
	return func(s *Spec) error {
		if p < 0 || p > 1 {
			return fmt.Errorf("preempt probability %v outside [0,1]", p)
		}
		s.cfg.PreemptProb = p
		return nil
	}
}

// Timeout sets the BOINC result deadline in seconds (§IV-E's to).
func Timeout(seconds float64) Option {
	return func(s *Spec) error {
		if seconds <= 0 {
			return fmt.Errorf("timeout %vs <= 0", seconds)
		}
		s.cfg.TimeoutSeconds = seconds
		return nil
	}
}

// StoreBackend swaps the store backing the shared server parameter copy
// (nil restores the default eventual store, the paper's Redis choice).
// newStore is a factory, not an instance: stores are mutable and runs
// write them, so every Config lowering calls it to give each run a
// private backend — keeping specs shareable across sweep workers and
// re-runnable without carrying parameter state between runs.
func StoreBackend(newStore func() store.Store) Option {
	return func(s *Spec) error {
		s.newStore = newStore
		return nil
	}
}

// Rule overrides the server update rule for ablations (nil restores
// VC-ASGD via the parameter-server group, the paper path).
func Rule(r baseline.UpdateRule) Option {
	return func(s *Spec) error {
		s.cfg.Rule = r
		return nil
	}
}

// WithPolicy selects the scheduler's assignment policy by registry name
// (boinc.PolicyNames lists the built-ins: paper, fifo, random,
// reliability-weighted). Unknown names
// and bad arguments fail at construction. Like StoreBackend, the policy
// is instantiated per Config lowering so sweep workers never share
// policy state.
func WithPolicy(name string, args ...string) Option {
	return func(s *Spec) error {
		if _, err := boinc.NewPolicy(name, args...); err != nil {
			return err
		}
		s.policyName = name
		s.policyArgs = append([]string(nil), args...)
		return nil
	}
}

// WithBackend selects the compute backend executing subtask math by
// spec (core.BackendNames lists them: real, parallel, surrogate, their
// "+cached" combinations, and bare "cached" for "parallel+cached").
// Unknown specs fail at construction. The backend instance itself is
// created per run inside the simulator, so sweep workers never share
// memoization or pool state.
func WithBackend(spec string) Option {
	return func(s *Spec) error {
		if err := core.ValidateBackendSpec(spec); err != nil {
			return err
		}
		s.cfg.Backend = spec
		return nil
	}
}

// WithComputeWorkers sizes the worker pool of the parallel and cached
// compute backends (0 restores the default: GOMAXPROCS, or Sweep's share
// of it per concurrent run). The pool size changes only wall clock,
// never the Result.
func WithComputeWorkers(n int) Option {
	return func(s *Spec) error {
		if n < 0 {
			return fmt.Errorf("compute workers %d < 0", n)
		}
		s.cfg.ComputeWorkers = n
		return nil
	}
}

// Replicate issues n concurrent copies of every subtask (BOINC's
// computational redundancy, §II-C; 1 restores the paper's single copy).
// Only the canonical result assimilates, so curves are unchanged; the
// duplicate math it costs is what the cached backend refunds.
func Replicate(n int) Option {
	return func(s *Spec) error {
		if n < 1 {
			return fmt.Errorf("replication %d < 1", n)
		}
		s.cfg.Replication = n
		return nil
	}
}

// RecordTest also evaluates test accuracy at each epoch (Figure 6).
func RecordTest() Option {
	return func(s *Spec) error {
		s.cfg.RecordTest = true
		return nil
	}
}

// NoSticky disables client-side file caching (the A2 ablation: every
// subtask re-downloads its inputs).
func NoSticky() Option {
	return func(s *Spec) error {
		s.cfg.DisableSticky = true
		return nil
	}
}

// AutoScalePS enables the §III-D dynamic parameter-server pool, capped
// at max processes (0 = the default cap of 8).
func AutoScalePS(max int) Option {
	return func(s *Spec) error {
		if max < 0 {
			return fmt.Errorf("autoscale cap %d < 0", max)
		}
		s.cfg.AutoScalePS = true
		s.cfg.MaxPServers = max
		return nil
	}
}

// Warmstart runs n serial synchronous epochs before distributing
// (§II-B's delayed-gradient mitigation).
func Warmstart(n int) Option {
	return func(s *Spec) error {
		if n < 0 {
			return fmt.Errorf("warmstart epochs %d < 0", n)
		}
		s.cfg.Job.WarmstartEpochs = n
		return nil
	}
}

// Observe attaches observers to the run; they receive events in the
// order given, after any previously attached observers. Observe composes
// with itself and with WithMetrics without callers hand-wrapping
// vcsim.Observers: the spec fans all attached sinks in.
func Observe(observers ...Observer) Option {
	return func(s *Spec) error {
		for _, o := range observers {
			if o == nil {
				return fmt.Errorf("nil observer")
			}
			s.obs = append(s.obs, o)
		}
		return nil
	}
}

// WithMetrics attaches a metrics registry to the run (DESIGN.md §10):
// scheduler lifecycle metrics (vcdl_sched_*) and simulator event
// metrics (vcdl_sim_*), histograms in virtual seconds. The registry
// sink composes with any Observe observers — registry first, then the
// observers in attachment order — and, like them, never perturbs the
// run.
func WithMetrics(r *obs.Registry) Option {
	return func(s *Spec) error {
		if r == nil {
			return fmt.Errorf("nil metrics registry")
		}
		s.metrics = r
		return nil
	}
}

// WithTrace attaches a workunit lifecycle tracer to the run. Spans carry
// the full lifecycle (created → assigned → compute_start/end → uploaded
// → validated → assimilated) in virtual seconds.
func WithTrace(t *obs.Tracer) Option {
	return func(s *Spec) error {
		if t == nil {
			return fmt.Errorf("nil tracer")
		}
		s.trace = t
		return nil
	}
}
