// Package ops is the runtime operations control plane: one shared core
// of fleet actions (list, cordon, drain, kill, rejoin, policy swap, PS
// resize, pacing tune, Byzantine toggle, snapshot) reachable three ways
// — the HTTP admin API mounted on the live server mux (/ops/...), the
// interactive `vcdl-scenario ops` CLI that drives that API over the
// wire, and scenario events, which the engine routes through the same
// Core. The Core wraps an engine target (*vcsim.Sim, *live.Fleet or a
// standalone live server) behind capability interfaces. The verbs that
// act on the BOINC scheduler are implemented here, once, over the
// Scheduled seam; the rest delegate to the engine's own plumbing
// (boinc.ClientControl, live.Fleet churn, ps.Group.Resize). Every verb
// is counted in the vcdl_ops_* metric families. Counting is passive
// under the non-perturbation contract: wrapping a simulator in a Core
// never changes its golden trace.
package ops

import (
	"slices"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/obs"
)

// Target is the minimum surface an engine must expose to be operated.
type Target interface {
	ActiveClients() []string
}

// Churner is fleet-membership churn: join, abrupt kill (single or LIFO).
type Churner interface {
	AddClient(inst cloud.InstanceType, region cloud.Region) string
	RemoveClients(n int) []string
	RemoveClient(id string) bool
}

// Slower is straggler injection.
type Slower interface {
	SlowClient(id string, factor float64) bool
}

// Shaper is fleet-wide environment shaping: preemption storms, regional
// latency incidents, and the topology quantities the scenario narrative
// reports.
type Shaper interface {
	SetPreemptProb(p float64)
	PreemptModel(p float64) cloud.PreemptModel
	FleetShape() (subtasks, tasksPerClient int)
	SetRegionRTT(region cloud.Region, rtt float64)
	ClearRegionRTT(region cloud.Region)
}

// PSResizer is parameter-server pool control.
type PSResizer interface {
	PServers() int
	SetPServers(n int)
}

// Scheduled is the seam every scheduler-scoped verb goes through: the
// engine's BOINC scheduler, reached the way *boinc.Server exposes it,
// and the clock that scheduler runs on. Cordon, policy swap, deadline,
// reliability floor and the scheduler half of the listing are
// implemented once, in Core, over this seam.
type Scheduled interface {
	// Scheduler runs f on the scheduler (on every shard of a striped one).
	Scheduler(f func(*boinc.Scheduler))
	ClientSummaries() []boinc.ClientSummary
	PolicyName() string
	// TimeScale is the scheduler's seconds per virtual second: a live
	// fleet's wall-clock scale, 1 for the simulator and a standalone
	// server.
	TimeScale() float64
}

// Waker lets a client the core just uncordoned ask for work again (a
// simulated client that is idle requests work only when poked).
type Waker interface {
	Wake(id string)
}

// Retimer follows a change of the scheduler's deadline (a live fleet
// re-pushes the preempt hold, which must outlast the deadline).
type Retimer interface {
	Retimed()
}

// Byzantiner switches a client's adversarial behavior. The core hands
// it only normalised behaviors (see NormalizeByzantine): "" is honest.
type Byzantiner interface {
	SetByzantine(id, behavior string) bool
}

// Detacher is graceful departure (real engine only).
type Detacher interface {
	DetachClient(id string) bool
	DetachClients(n int) []string
}

// Rejoiner revives departed clients (real engine only).
type Rejoiner interface {
	RejoinClient(id string) bool
	RejoinClients(n int) []string
}

// BlobKiller is data-plane fault injection (real engine only).
type BlobKiller interface {
	SetBlobKill(n int64) bool
}

// Lister lists every client the engine ever had, departed ones
// included, with the fields only the engine knows (placement, shaping,
// pacing). The core joins in the scheduler's view.
type Lister interface {
	ClientStatus() []ClientStatus
}

// ClientStatus is one client's live state as the ops plane reports it:
// identity and placement, pacing and shaping, and the scheduler's view
// (reliability, in-flight work, sticky-cache size).
type ClientStatus struct {
	ID          string  `json:"id"`
	Instance    string  `json:"instance,omitempty"`
	Region      string  `json:"region,omitempty"`
	Active      bool    `json:"active"`
	Detached    bool    `json:"detached,omitempty"`
	Cordoned    bool    `json:"cordoned,omitempty"`
	Byzantine   string  `json:"byzantine,omitempty"`
	SlowFactor  float64 `json:"slow_factor,omitempty"`
	Slots       int     `json:"slots,omitempty"`
	PaceSeconds float64 `json:"pace_seconds,omitempty"`
	Reliability float64 `json:"reliability"`
	InFlight    int     `json:"in_flight"`
	CachedFiles int     `json:"cached_files"`
}

// Snapshot is the whole-deployment dump the admin API serves.
type Snapshot struct {
	Policy         string         `json:"policy"`
	PServers       int            `json:"pservers"`
	Subtasks       int            `json:"subtasks,omitempty"`
	TasksPerClient int            `json:"tasks_per_client,omitempty"`
	ActiveClients  int            `json:"active_clients"`
	Clients        []ClientStatus `json:"clients"`
}

// Core is the shared ops implementation: every fleet action, delegated
// to its target. Scenario events apply to a Core directly, and the HTTP
// handlers and CLI drive the very same methods. Actions are counted per
// action name in vcdl_ops_actions_total; actions that could not apply
// (unknown client, missing capability) count in vcdl_ops_failures_total
// instead.
type Core struct {
	target   Target
	actions  *obs.CounterVec
	failures *obs.CounterVec
}

// NewCore wraps an engine target. A nil registry still yields a working
// core (counts go to a private registry nobody scrapes).
func NewCore(target Target, reg *obs.Registry) *Core {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Core{
		target:   target,
		actions:  reg.CounterVec("vcdl_ops_actions_total", "ops control-plane actions applied, by action", "action"),
		failures: reg.CounterVec("vcdl_ops_failures_total", "ops control-plane actions that failed to apply, by action", "action"),
	}
}

func (c *Core) count(action string) { c.actions.With(action).Inc() }
func (c *Core) fail(action string)  { c.failures.With(action).Inc() }

// counted wraps a bool outcome with success/failure accounting.
func (c *Core) counted(action string, ok bool) bool {
	if ok {
		c.count(action)
	} else {
		c.fail(action)
	}
	return ok
}

// apply counts action and runs f on the target's capability T, or
// counts a failure when the target lacks it.
func apply[T any](c *Core, action string, f func(T)) {
	if t, ok := c.target.(T); c.counted(action, ok) {
		f(t)
	}
}

// applyEach runs f on the target's capability T and counts action once
// per client it returns, or counts one failure when the target lacks T.
func applyEach[T any](c *Core, action string, f func(T) []string) []string {
	t, ok := c.target.(T)
	if !ok {
		c.fail(action)
		return nil
	}
	ids := f(t)
	for range ids {
		c.count(action)
	}
	return ids
}

// ActiveClients lists active client IDs (a pure read; not counted so
// event helpers that resolve #indexes don't inflate action counts).
func (c *Core) ActiveClients() []string { return c.target.ActiveClients() }

// AddClient joins a new client (volunteer churn, flash crowds) and
// returns its ID. ok is false, and no client joins, when the target
// cannot add clients.
func (c *Core) AddClient(inst cloud.InstanceType, region cloud.Region) (id string, ok bool) {
	t, can := c.target.(Churner)
	if !c.counted("join", can) {
		return "", false
	}
	return t.AddClient(inst, region), true
}

// RemoveClients abruptly kills the n most recently joined clients.
func (c *Core) RemoveClients(n int) []string {
	return applyEach(c, "kill", func(t Churner) []string { return t.RemoveClients(n) })
}

// RemoveClient abruptly kills one client by ID.
func (c *Core) RemoveClient(id string) bool {
	t, ok := c.target.(Churner)
	return c.counted("kill", ok && t.RemoveClient(id))
}

// SlowClient turns a client into a straggler (factor 1 restores).
func (c *Core) SlowClient(id string, factor float64) bool {
	t, ok := c.target.(Slower)
	return c.counted("slow", ok && t.SlowClient(id, factor))
}

// SlowClientAt slows the i-th active client.
func (c *Core) SlowClientAt(i int, factor float64) (string, bool) {
	ids := c.target.ActiveClients()
	if i < 0 || i >= len(ids) {
		c.fail("slow")
		return "", false
	}
	if !c.SlowClient(ids[i], factor) {
		return "", false
	}
	return ids[i], true
}

// SetPreemptProb hot-changes the fleet-wide preemption probability.
func (c *Core) SetPreemptProb(p float64) {
	apply(c, "preempt", func(t Shaper) { t.SetPreemptProb(p) })
}

// PreemptModel returns the engine's §IV-E preemption model (pure read).
func (c *Core) PreemptModel(p float64) cloud.PreemptModel {
	if t, ok := c.target.(Shaper); ok {
		return t.PreemptModel(p)
	}
	return cloud.PreemptModel{P: p}
}

// FleetShape reports subtasks-per-epoch and tasks-per-client (pure read).
func (c *Core) FleetShape() (subtasks, tasksPerClient int) {
	if t, ok := c.target.(Shaper); ok {
		return t.FleetShape()
	}
	return 0, 0
}

// SetRegionRTT overrides a region's round-trip latency.
func (c *Core) SetRegionRTT(region cloud.Region, rtt float64) {
	apply(c, "outage", func(t Shaper) { t.SetRegionRTT(region, rtt) })
}

// ClearRegionRTT restores a region's static latency.
func (c *Core) ClearRegionRTT(region cloud.Region) {
	apply(c, "recover", func(t Shaper) { t.ClearRegionRTT(region) })
}

// PServers returns the parameter-server pool size (pure read).
func (c *Core) PServers() int {
	if t, ok := c.target.(PSResizer); ok {
		return t.PServers()
	}
	return 0
}

// SetPServers resizes the parameter-server pool.
func (c *Core) SetPServers(n int) {
	apply(c, "ps-resize", func(t PSResizer) { t.SetPServers(n) })
}

// onScheduler runs f on the target's scheduler and counts action, or
// counts a failure when the target has no scheduler.
func (c *Core) onScheduler(action string, f func(*boinc.Scheduler)) {
	apply(c, action, func(t Scheduled) { t.Scheduler(f) })
}

// SetTimeout hot-changes the result deadline, in virtual seconds. It is
// the scheduler's default timeout, the only deadline there is: every
// later issue, a reissue included, uses it, results already sent keep
// theirs.
func (c *Core) SetTimeout(seconds float64) {
	t, ok := c.target.(Scheduled)
	if !c.counted("tune-timeout", ok && seconds > 0) {
		return
	}
	wall := seconds * t.TimeScale()
	t.Scheduler(func(s *boinc.Scheduler) { s.SetDefaultTimeout(wall) })
	if r, ok := c.target.(Retimer); ok {
		r.Retimed()
	}
}

// SetReliabilityFloor hot-changes the retry reliability gate.
func (c *Core) SetReliabilityFloor(floor float64) {
	c.onScheduler("tune-floor", func(s *boinc.Scheduler) { s.SetReliabilityFloor(floor) })
}

// SetPolicy hot-swaps the scheduler's assignment policy (nil restores
// the paper policy). Results in flight are unaffected.
func (c *Core) SetPolicy(p boinc.Policy) {
	c.onScheduler("policy-swap", func(s *boinc.Scheduler) { s.SetPolicy(p) })
}

// PolicyName reports the active assignment policy (pure read).
func (c *Core) PolicyName() string {
	if t, ok := c.target.(Scheduled); ok {
		return t.PolicyName()
	}
	return ""
}

// Cordon quarantines (on) or releases (off) an active client: the
// scheduler hands it no new work while its results in flight complete
// or expire. A client not in ActiveClients is refused.
func (c *Core) Cordon(id string, on bool) bool {
	action := "cordon"
	if !on {
		action = "uncordon"
	}
	t, ok := c.target.(Scheduled)
	if !c.counted(action, ok && slices.Contains(c.target.ActiveClients(), id)) {
		return false
	}
	t.Scheduler(func(s *boinc.Scheduler) { s.SetCordoned(id, on) })
	if w, ok := c.target.(Waker); ok && !on {
		w.Wake(id)
	}
	return true
}

// NormalizeByzantine is the one check of a Byzantine behavior name: ""
// and "off" restore honesty (normalised to ""), anything else must be
// one of boinc.ByzantineBehaviors.
func NormalizeByzantine(behavior string) (string, bool) {
	if behavior == "off" {
		return "", true
	}
	return behavior, behavior == "" || boinc.ValidByzantine(behavior)
}

// SetByzantine switches a client's adversarial behavior.
func (c *Core) SetByzantine(id, behavior string) bool {
	b, valid := NormalizeByzantine(behavior)
	t, ok := c.target.(Byzantiner)
	return c.counted("byzantine", valid && ok && t.SetByzantine(id, b))
}

// DetachClient gracefully drains one client (real engine only).
func (c *Core) DetachClient(id string) bool {
	t, ok := c.target.(Detacher)
	return c.counted("drain", ok && t.DetachClient(id))
}

// DetachClients gracefully drains the n most recently joined clients.
func (c *Core) DetachClients(n int) []string {
	return applyEach(c, "drain", func(t Detacher) []string { return t.DetachClients(n) })
}

// RejoinClient revives one departed client (real engine only).
func (c *Core) RejoinClient(id string) bool {
	t, ok := c.target.(Rejoiner)
	return c.counted("rejoin", ok && t.RejoinClient(id))
}

// RejoinClients revives the n most recently departed clients.
func (c *Core) RejoinClients(n int) []string {
	return applyEach(c, "rejoin", func(t Rejoiner) []string { return t.RejoinClients(n) })
}

// SetBlobKill arms/disarms data-plane fault injection (real engine only).
func (c *Core) SetBlobKill(n int64) bool {
	t, ok := c.target.(BlobKiller)
	return c.counted("blob-kill", ok && t.SetBlobKill(n))
}

// KnownClient reports whether a client id ever existed, departed or not
// (pure read). A target without a Lister claims everything is known, so
// the never-existed check stays conservative.
func (c *Core) KnownClient(id string) bool {
	l, ok := c.target.(Lister)
	return !ok || slices.ContainsFunc(l.ClientStatus(), func(cs ClientStatus) bool { return cs.ID == id })
}

// Clients returns the rich per-client listing.
func (c *Core) Clients() []ClientStatus {
	c.count("list")
	if out := c.clientStatus(); out != nil {
		return out
	}
	return []ClientStatus{}
}

// clientStatus is the uncounted per-client listing (nil when there are
// no clients): the target's own rows when it has a Lister, bare active
// IDs otherwise, joined by ID with the scheduler's view. A client the
// scheduler has not heard from yet lists at reliability 1.
func (c *Core) clientStatus() []ClientStatus {
	var out []ClientStatus
	if l, ok := c.target.(Lister); ok {
		out = l.ClientStatus()
	} else {
		for _, id := range c.target.ActiveClients() {
			out = append(out, ClientStatus{ID: id, Active: true})
		}
	}
	seen := map[string]boinc.ClientSummary{}
	if t, ok := c.target.(Scheduled); ok {
		for _, s := range t.ClientSummaries() {
			seen[s.ID] = s
		}
	}
	for i := range out {
		cs := &out[i]
		cs.Reliability = 1
		if s, ok := seen[cs.ID]; ok {
			cs.Cordoned, cs.Reliability, cs.InFlight, cs.CachedFiles = s.Cordoned, s.Reliability, s.InFlight, s.CachedFiles
		}
	}
	return out
}

// Snapshot dumps the whole deployment state.
func (c *Core) Snapshot() Snapshot {
	c.count("snapshot")
	snap := Snapshot{
		Policy:   c.PolicyName(),
		PServers: c.PServers(),
	}
	snap.Subtasks, snap.TasksPerClient = c.FleetShape()
	snap.Clients = c.clientStatus()
	for _, cs := range snap.Clients {
		if cs.Active {
			snap.ActiveClients++
		}
	}
	return snap
}
