// Package ops is the runtime operations control plane: one shared core
// of fleet actions (list, cordon, drain, kill, rejoin, policy swap, PS
// resize, pacing tune, Byzantine toggle, snapshot) reachable three ways
// — the HTTP admin API mounted on the live server mux (/ops/...), the
// interactive `vcdl-scenario ops` CLI that drives that API over the
// wire, and scenario events, which the engine routes through the same
// Core. The Core wraps an engine target (*live.Fleet or *vcsim.Sim)
// behind capability interfaces, delegates every action to the existing
// plumbing (boinc.ClientControl, live.Fleet churn, ps.Group.Resize) and
// counts it in the vcdl_ops_* metric families. Counting is passive
// under the non-perturbation contract: wrapping a simulator in a Core
// never changes its golden trace.
package ops

import (
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
	SlowClientAt(i int, factor float64) (string, bool)
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

// Tuner is scheduler tuning: result deadline and retry reliability gate.
type Tuner interface {
	SetTimeout(seconds float64)
	SetReliabilityFloor(floor float64)
}

// PSResizer is parameter-server pool control.
type PSResizer interface {
	PServers() int
	SetPServers(n int)
}

// PolicySwapper is scheduler-policy hot swap.
type PolicySwapper interface {
	SetPolicy(p boinc.Policy)
	PolicyName() string
}

// Cordoner quarantines a client (no new work) and releases it again.
type Cordoner interface {
	Cordon(id string, on bool) bool
}

// Byzantiner switches a client's adversarial behavior (see
// boinc.ByzantineBehaviors; "" or "off" restores honesty).
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

// Lister provides the rich per-client view for the admin API.
type Lister interface {
	ClientStatus() []ClientStatus
}

// Knower reports whether a client id ever existed, departed or not.
type Knower interface {
	KnownClient(id string) bool
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
	t, ok := c.target.(Churner)
	if !ok {
		c.fail("kill")
		return nil
	}
	gone := t.RemoveClients(n)
	for range gone {
		c.count("kill")
	}
	return gone
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
	t, ok := c.target.(Slower)
	if !ok {
		c.fail("slow")
		return "", false
	}
	id, ok := t.SlowClientAt(i, factor)
	c.counted("slow", ok)
	return id, ok
}

// SetPreemptProb hot-changes the fleet-wide preemption probability.
func (c *Core) SetPreemptProb(p float64) {
	if t, ok := c.target.(Shaper); ok {
		c.count("preempt")
		t.SetPreemptProb(p)
	} else {
		c.fail("preempt")
	}
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
	if t, ok := c.target.(Shaper); ok {
		c.count("outage")
		t.SetRegionRTT(region, rtt)
	} else {
		c.fail("outage")
	}
}

// ClearRegionRTT restores a region's static latency.
func (c *Core) ClearRegionRTT(region cloud.Region) {
	if t, ok := c.target.(Shaper); ok {
		c.count("recover")
		t.ClearRegionRTT(region)
	} else {
		c.fail("recover")
	}
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
	if t, ok := c.target.(PSResizer); ok {
		c.count("ps-resize")
		t.SetPServers(n)
	} else {
		c.fail("ps-resize")
	}
}

// SetTimeout hot-changes the result deadline (virtual seconds).
func (c *Core) SetTimeout(seconds float64) {
	if t, ok := c.target.(Tuner); ok {
		c.count("tune-timeout")
		t.SetTimeout(seconds)
	} else {
		c.fail("tune-timeout")
	}
}

// SetReliabilityFloor hot-changes the retry reliability gate.
func (c *Core) SetReliabilityFloor(floor float64) {
	if t, ok := c.target.(Tuner); ok {
		c.count("tune-floor")
		t.SetReliabilityFloor(floor)
	} else {
		c.fail("tune-floor")
	}
}

// SetPolicy hot-swaps the scheduler's assignment policy.
func (c *Core) SetPolicy(p boinc.Policy) {
	if t, ok := c.target.(PolicySwapper); ok {
		c.count("policy-swap")
		t.SetPolicy(p)
	} else {
		c.fail("policy-swap")
	}
}

// PolicyName reports the active assignment policy (pure read).
func (c *Core) PolicyName() string {
	if t, ok := c.target.(PolicySwapper); ok {
		return t.PolicyName()
	}
	return ""
}

// Cordon quarantines (on) or releases (off) a client.
func (c *Core) Cordon(id string, on bool) bool {
	action := "cordon"
	if !on {
		action = "uncordon"
	}
	t, ok := c.target.(Cordoner)
	return c.counted(action, ok && t.Cordon(id, on))
}

// SetByzantine switches a client's adversarial behavior.
func (c *Core) SetByzantine(id, behavior string) bool {
	t, ok := c.target.(Byzantiner)
	return c.counted("byzantine", ok && t.SetByzantine(id, behavior))
}

// DetachClient gracefully drains one client (real engine only).
func (c *Core) DetachClient(id string) bool {
	t, ok := c.target.(Detacher)
	return c.counted("drain", ok && t.DetachClient(id))
}

// DetachClients gracefully drains the n most recently joined clients.
func (c *Core) DetachClients(n int) []string {
	t, ok := c.target.(Detacher)
	if !ok {
		c.fail("drain")
		return nil
	}
	gone := t.DetachClients(n)
	for range gone {
		c.count("drain")
	}
	return gone
}

// RejoinClient revives one departed client (real engine only).
func (c *Core) RejoinClient(id string) bool {
	t, ok := c.target.(Rejoiner)
	return c.counted("rejoin", ok && t.RejoinClient(id))
}

// RejoinClients revives the n most recently departed clients.
func (c *Core) RejoinClients(n int) []string {
	t, ok := c.target.(Rejoiner)
	if !ok {
		c.fail("rejoin")
		return nil
	}
	back := t.RejoinClients(n)
	for range back {
		c.count("rejoin")
	}
	return back
}

// SetBlobKill arms/disarms data-plane fault injection (real engine only).
func (c *Core) SetBlobKill(n int64) bool {
	t, ok := c.target.(BlobKiller)
	return c.counted("blob-kill", ok && t.SetBlobKill(n))
}

// KnownClient reports whether a client id ever existed (pure read;
// engines without the capability claim everything is known, so the
// never-existed check stays conservative).
func (c *Core) KnownClient(id string) bool {
	if t, ok := c.target.(Knower); ok {
		return t.KnownClient(id)
	}
	return true
}

// Clients returns the rich per-client listing.
func (c *Core) Clients() []ClientStatus {
	c.count("list")
	if out := c.clientStatus(); out != nil {
		return out
	}
	return []ClientStatus{}
}

// clientStatus is the uncounted per-client listing: the target's own
// when it has a Lister, bare active IDs otherwise (nil when none).
func (c *Core) clientStatus() []ClientStatus {
	if l, ok := c.target.(Lister); ok {
		return l.ClientStatus()
	}
	var out []ClientStatus
	for _, id := range c.target.ActiveClients() {
		out = append(out, ClientStatus{ID: id, Active: true, Reliability: 1})
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
