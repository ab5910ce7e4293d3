package vcsim

import (
	"fmt"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/ops"
	"vcdl/internal/sim"
	"vcdl/internal/store"
)

// Sim is a started simulation whose fleet and configuration can be
// mutated while virtual time advances. It is the injection surface the
// scenario engine (internal/scenario) drives: every hook below mirrors a
// real operational event of a volunteer-computing deployment — hosts
// joining and leaving, preemption storms, regional latency incidents,
// parameter-server failover and live scheduler reconfiguration
// (DESIGN.md §5). All hooks must be called from inside the engine's
// event loop (i.e. from callbacks scheduled on Engine()) or before Run.
type Sim struct {
	r *run
}

// Start validates the config, applies defaults and builds the simulation
// without running it. Callers schedule injection events on Engine() and
// then drive the run with Run.
func Start(cfg Config) (*Sim, error) {
	if err := cfg.Job.Validate(); err != nil {
		return nil, err
	}
	if cfg.PServers < 1 {
		cfg.PServers = 1
	}
	if cfg.TasksPerClient < 1 {
		cfg.TasksPerClient = 1
	}
	if len(cfg.ClientInstances) == 0 {
		cfg.ClientInstances = cloud.DefaultFleet(3)
	}
	if cfg.BaseSubtaskSeconds <= 0 {
		cfg.BaseSubtaskSeconds = 144
	}
	if cfg.AssimSeconds <= 0 {
		cfg.AssimSeconds = 19.2
	}
	if cfg.ThreadsPerTask <= 0 {
		cfg.ThreadsPerTask = 4
	}
	if cfg.ContentionExp <= 0 {
		cfg.ContentionExp = 0.72
	}
	if cfg.TimeoutSeconds <= 0 {
		cfg.TimeoutSeconds = 1800
	}
	if cfg.ByzantineClients > 0 && !boinc.ValidByzantine(cfg.Byzantine) {
		return nil, fmt.Errorf("vcsim: unknown byzantine behavior %q (want one of %v)", cfg.Byzantine, boinc.ByzantineBehaviors)
	}
	st := cfg.Store
	if st == nil {
		st = store.NewEventual(1, 0, cfg.Seed)
	}
	// One backend per run: backends are stateful (memoization, worker
	// pools) and sharing one across runs would couple otherwise
	// independent simulations.
	backend, err := core.NewBackend(cfg.Backend, cfg.Job, cfg.ComputeWorkers)
	if err != nil {
		return nil, err
	}
	r := newRun(cfg, st, backend)
	if err := r.start(); err != nil {
		backend.Close()
		return nil, err
	}
	return &Sim{r: r}, nil
}

// Engine exposes the virtual clock so callers can schedule injections.
func (s *Sim) Engine() *sim.Engine { return s.r.eng }

// Run drives the simulation until training finishes (or the event queue
// drains, e.g. when the whole fleet departed and nobody rejoins) and
// assembles the Result.
func (s *Sim) Run() (*Result, error) {
	s.r.eng.RunWhile(func() bool { return !s.r.finished })
	return s.r.finish()
}

// Config returns the run's live configuration (hot changes included,
// except the deadline: TimeoutSeconds is the initial one, and the ops
// plane retimes the scheduler's default timeout instead).
func (s *Sim) Config() Config { return s.r.cfg }

// ActiveClients lists the IDs of clients currently in the pool.
func (s *Sim) ActiveClients() []string {
	var ids []string
	for _, c := range s.r.clients {
		if !c.departed {
			ids = append(ids, c.id)
		}
	}
	return ids
}

// AddClient joins a new client of the given instance type in the given
// region (volunteer churn, flash crowds). It returns the new client's ID
// and immediately lets the client request work.
func (s *Sim) AddClient(inst cloud.InstanceType, region cloud.Region) string {
	if region == "" {
		region = cloud.USEast
	}
	c := newSimClient(s.r.nextClient, cloud.PlacedInstance{InstanceType: inst, Region: region},
		s.r.cfg.TasksPerClient, s.r.eng.Now())
	s.r.nextClient++
	s.r.clients = append(s.r.clients, c)
	s.r.tryAssign(c)
	return c.id
}

// RemoveClients departs the n most recently joined active clients
// (LIFO, so a flash crowd recedes in join order). In-flight work on the
// departed clients is lost and reissued by the scheduler at its
// deadline. It returns the departed IDs.
func (s *Sim) RemoveClients(n int) []string {
	var gone []string
	for i := len(s.r.clients) - 1; i >= 0 && len(gone) < n; i-- {
		if c := s.r.clients[i]; !c.departed {
			s.depart(c)
			gone = append(gone, c.id)
		}
	}
	return gone
}

// RemoveClient departs one client by ID; ok reports whether it existed
// and was still active.
func (s *Sim) RemoveClient(id string) bool {
	c := s.active(id)
	if c != nil {
		s.depart(c)
	}
	return c != nil
}

func (s *Sim) depart(c *simClient) {
	c.departed = true
	c.departedAt = s.r.eng.Now()
	s.r.sched.DropClient(c.id)
}

// active returns the active client with the given ID, or nil.
func (s *Sim) active(id string) *simClient {
	for _, c := range s.r.clients {
		if c.id == id && !c.departed {
			return c
		}
	}
	return nil
}

// SlowClient multiplies an active client's subtask execution time by
// factor (straggler injection; factor 1 restores nominal speed).
func (s *Sim) SlowClient(id string, factor float64) bool {
	if factor <= 0 {
		factor = 1
	}
	c := s.active(id)
	if c != nil {
		c.slow = factor
	}
	return c != nil
}

// SetPreemptProb hot-changes the per-subtask preemption probability
// (preemption storms start with p > 0 and end with p = 0).
func (s *Sim) SetPreemptProb(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s.r.cfg.PreemptProb = p
}

// PreemptModel returns the paper's §IV-E binomial model instantiated
// with the run's calibrated execution time, the given storm probability
// and the scheduler's current default timeout — the scenario engine
// uses it to report the predicted training-time increase of a storm.
func (s *Sim) PreemptModel(p float64) cloud.PreemptModel {
	return cloud.PreemptModel{
		P:               p,
		TaskExecSeconds: s.r.cfg.BaseSubtaskSeconds,
		TimeoutSeconds:  s.r.sched.Config().DefaultTimeout,
	}
}

// SetRegionRTT overrides the round-trip latency of a region for the rest
// of the run (region outage: rtt in seconds; recovery: ClearRegionRTT).
func (s *Sim) SetRegionRTT(region cloud.Region, rtt float64) {
	if rtt < 0 {
		rtt = 0
	}
	s.r.rttOverride[region] = rtt
}

// ClearRegionRTT restores a region's static latency.
func (s *Sim) ClearRegionRTT(region cloud.Region) {
	delete(s.r.rttOverride, region)
}

// PServers returns the current parameter-server capacity.
func (s *Sim) PServers() int { return s.r.assim.Slots() }

// SetPServers resizes the parameter-server pool (failover: shrink when a
// PS process dies, grow when a standby takes over). Work queued on a
// failed PS drains through the survivors.
func (s *Sim) SetPServers(n int) {
	if n < 1 {
		n = 1
	}
	s.r.assim.SetSlots(n)
	if n > s.r.res.MaxPSUsed {
		s.r.res.MaxPSUsed = n
	}
}

// Scheduler, ClientSummaries, PolicyName and TimeScale are the ops seam
// (ops.Scheduled) over the run's scheduler, whose clock is the virtual
// one.
func (s *Sim) Scheduler(f func(*boinc.Scheduler))     { f(s.r.sched) }
func (s *Sim) ClientSummaries() []boinc.ClientSummary { return s.r.sched.ClientSummaries() }
func (s *Sim) PolicyName() string                     { return s.r.sched.Policy().Name() }
func (s *Sim) TimeScale() float64                     { return 1 }

// FleetShape reports the run's subtasks-per-epoch and tasks-per-client,
// the quantities the scenario engine's preemption narrative needs.
func (s *Sim) FleetShape() (subtasks, tasksPerClient int) {
	return s.r.cfg.Job.Subtasks, s.r.cfg.TasksPerClient
}

// Wake lets an active client the ops core just uncordoned ask for work:
// an idle sim client requests work only when poked, so without this it
// would sleep forever.
func (s *Sim) Wake(id string) {
	if c := s.active(id); c != nil {
		s.r.tryAssign(c)
	}
}

// SetByzantine switches an active client's adversarial behavior mid-run
// ("" restores honesty); ok reports whether the client is active.
func (s *Sim) SetByzantine(id, behavior string) bool {
	c := s.active(id)
	if c != nil {
		c.byzantine = behavior
	}
	return c != nil
}

// ClientStatus lists every client of the run, departed ones included,
// with its placement and shaping (ops.Lister).
func (s *Sim) ClientStatus() []ops.ClientStatus {
	out := make([]ops.ClientStatus, 0, len(s.r.clients))
	for _, c := range s.r.clients {
		out = append(out, ops.ClientStatus{
			ID:         c.id,
			Instance:   c.inst.Name,
			Region:     string(c.inst.Region),
			Active:     !c.departed,
			Byzantine:  c.byzantine,
			SlowFactor: c.slow,
			Slots:      c.slots,
		})
	}
	return out
}
