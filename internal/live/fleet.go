package live

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/metrics"
	"vcdl/internal/obs"
	"vcdl/internal/ops"
	"vcdl/internal/vcsim"
)

// DefaultTimeScale maps one virtual minute onto one wall-clock second:
// scenario event times, scheduler deadlines and per-instance execution
// pacing are all multiplied by it, so a run that takes half a virtual
// hour in the simulator takes about thirty real seconds against a live
// fleet. See DESIGN.md §9 for what this mapping does and doesn't
// guarantee.
const DefaultTimeScale = 1.0 / 60

// SpawnFunc launches one client daemon and returns a channel that
// yields its terminal error. Cancelling ctx must kill the client
// abruptly (in-flight results abandoned). The default spawner runs
// RunClient on a goroutine; cmd/vcdl-scenario's -procs mode substitutes
// one that execs separate OS processes.
type SpawnFunc func(ctx context.Context, cfg ClientConfig) (<-chan error, error)

func goroutineSpawn(ctx context.Context, cfg ClientConfig) (<-chan error, error) {
	ch := make(chan error, 1)
	go func() {
		_, err := RunClient(ctx, cfg)
		ch <- err
	}()
	return ch, nil
}

// FleetConfig describes a whole real-mode deployment: the server half
// plus an initial client fleet with the simulator's calibrated pacing.
type FleetConfig struct {
	Server ServerConfig
	// Name labels the run's Result (empty derives PnCnTn).
	Name string
	// Fleet is the initial client placement (instance type + region).
	Fleet []cloud.PlacedInstance
	// TasksPerClient is the paper's Tn.
	TasksPerClient int
	// BaseSubtaskSeconds is the virtual execution time of one subtask at
	// the reference clock (vcsim's calibrated te); each client's pacing
	// scales it by clock ratio, steady-state contention and TimeScale.
	BaseSubtaskSeconds float64
	// ThreadsPerTask and ContentionExp parameterize the simulator's
	// slot-contention model; pacing assumes the steady state (all Tn
	// slots busy), load^exp for load = Tn·threads/vCPU > 1. Zero values
	// take the simulator's defaults (4 threads, exponent 0.72).
	ThreadsPerTask float64
	ContentionExp  float64
	// TimeoutVirtual is the scheduler result deadline in virtual seconds.
	TimeoutVirtual float64
	// TimeScale converts virtual seconds to wall seconds
	// (0 = DefaultTimeScale).
	TimeScale float64
	// Preempt is the initial per-assignment preemption probability.
	Preempt float64
	// Poll is the client idle poll (0 = 25ms).
	Poll time.Duration
	// Blobs enables the content-addressed data plane end to end: the
	// server publishes inputs at /blob/{digest}, every client gets a
	// per-member disk cache that survives depart/rejoin (warm caches skip
	// the transfer), and shards travel by digest (DESIGN.md §11).
	Blobs bool
	// Checkpoint persists epoch checkpoints through the PS group's store
	// so failover (SetPServers shrink) restores instead of restarting.
	Checkpoint bool
	// Byzantine marks the first ByzantineClients members of the initial
	// fleet adversarial with the named behavior (boinc.ByzantineBehaviors).
	// The behavior travels to the daemons through ClientControl, so it
	// works for -procs clients too; SetByzantine toggles it mid-run.
	Byzantine        string
	ByzantineClients int
	// Spawn launches clients (nil = in-process goroutines).
	Spawn SpawnFunc
	// Metrics instruments the server half (shorthand for
	// Server.Metrics; either spelling works, FleetConfig wins when both
	// are set). Histograms record wall seconds.
	Metrics *obs.Registry
	// Trace records scheduler-side workunit lifecycle spans (shorthand
	// for Server.Trace).
	Trace *obs.Tracer
	// Log receives fleet lifecycle events and is handed to every
	// goroutine-spawned client daemon (nil = silent). Process spawners
	// receive it in ClientConfig and may forward it as a -v flag.
	Log *obs.Logger
}

// member is one tracked client daemon.
type member struct {
	id        string
	inst      cloud.PlacedInstance
	cancel    context.CancelFunc
	done      <-chan error
	slow      float64
	departed  bool
	detached  bool
	byzantine string
	// cacheDir is the member's blob cache directory. It is keyed by the
	// member ID and deliberately outlives departure, so a rejoining
	// volunteer comes back with a warm digest cache.
	cacheDir string
}

// Fleet is a running real-mode deployment. Its mutating methods mirror
// the simulator's injection hooks (vcsim.Sim) one for one, so the
// scenario engine drives either engine through the same interface; all
// shaping reaches the clients through the server's ClientControl
// channel in scheduler replies, never through shared memory — which is
// what lets -procs clients live in separate OS processes.
type Fleet struct {
	cfg   FleetConfig
	srv   *Server
	scale float64
	start time.Time

	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	members     []*member
	nextID      int
	preempt     float64
	rttOverride map[cloud.Region]float64 // virtual seconds
	maxPS       int
	// blobRoot holds the per-member blob cache directories when the data
	// plane is on; removed on Close.
	blobRoot string

	// opsCore is the shared ops control plane over this fleet: the /ops
	// admin API mounted on the server mux, the CLI and scenario events all
	// drive it, and it counts every action in vcdl_ops_actions_total.
	opsCore *ops.Core
}

// StartFleet boots the server and the initial client fleet. The fleet
// is live immediately; Wait blocks until training completes.
func StartFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Fleet) == 0 {
		return nil, fmt.Errorf("live: empty client fleet")
	}
	if cfg.TasksPerClient < 1 {
		cfg.TasksPerClient = 1
	}
	scale := cfg.TimeScale
	if scale <= 0 {
		scale = DefaultTimeScale
	}
	if cfg.TimeoutVirtual <= 0 {
		cfg.TimeoutVirtual = 1800
	}
	if cfg.BaseSubtaskSeconds <= 0 {
		cfg.BaseSubtaskSeconds = 144
	}
	if cfg.ThreadsPerTask <= 0 {
		cfg.ThreadsPerTask = 4
	}
	if cfg.ContentionExp <= 0 {
		cfg.ContentionExp = 0.72
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 25 * time.Millisecond
	}
	if cfg.Spawn == nil {
		cfg.Spawn = goroutineSpawn
	}
	if cfg.ByzantineClients > 0 && !boinc.ValidByzantine(cfg.Byzantine) {
		return nil, fmt.Errorf("live: unknown byzantine behavior %q (want one of %v)", cfg.Byzantine, boinc.ByzantineBehaviors)
	}
	if cfg.Server.PServers < 1 {
		cfg.Server.PServers = 1
	}
	// The scheduler runs on the wall clock, so its deadline is the
	// scenario's virtual timeout scaled down; policies see the job seed.
	sched := boinc.DefaultSchedulerConfig()
	if cfg.Server.Scheduler != nil {
		sched = *cfg.Server.Scheduler
	}
	sched.DefaultTimeout = cfg.TimeoutVirtual * scale
	sched.Seed = cfg.Server.Job.Seed
	cfg.Server.Scheduler = &sched
	if cfg.Metrics != nil {
		cfg.Server.Metrics = cfg.Metrics
	}
	if cfg.Trace != nil {
		cfg.Server.Trace = cfg.Trace
	}
	if cfg.Blobs {
		cfg.Server.Blobs = true
	}
	if cfg.Checkpoint {
		cfg.Server.Checkpoint = true
	}
	var blobRoot string
	if cfg.Server.Blobs {
		root, err := os.MkdirTemp("", "vcdl-blobcache-")
		if err != nil {
			return nil, fmt.Errorf("live: blob cache root: %w", err)
		}
		blobRoot = root
	}

	// The clock starts before the server so the distributed job's
	// wall-stamped curve points always fall inside the run's duration.
	start := time.Now()
	srv, err := StartServer("127.0.0.1:0", cfg.Server)
	if err != nil {
		return nil, err
	}
	cfg.Log.Info("server listening", "url", srv.URL(),
		"clients", len(cfg.Fleet), "timescale", scale, "metrics", cfg.Server.Metrics != nil)
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fleet{
		cfg:         cfg,
		srv:         srv,
		scale:       scale,
		start:       start,
		ctx:         ctx,
		cancel:      cancel,
		preempt:     cfg.Preempt,
		rttOverride: make(map[cloud.Region]float64),
		maxPS:       cfg.Server.PServers,
		blobRoot:    blobRoot,
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, pi := range cfg.Fleet {
		m, err := f.addClientLocked(pi)
		if err != nil {
			f.closeLocked()
			return nil, err
		}
		if i < cfg.ByzantineClients {
			m.byzantine = cfg.Byzantine
			f.pushControlLocked(m)
		}
	}
	// One shared ops core over this fleet, mounted on the live server mux
	// so `curl $URL/ops/...` works against any running deployment. The
	// core counts into the same registry the server scrapes at /metrics.
	f.opsCore = ops.NewCore(f, cfg.Server.Metrics)
	srv.D.Server().Handle("/ops/", f.opsCore.Handler())
	return f, nil
}

// Ops returns the fleet's shared ops control-plane core.
func (f *Fleet) Ops() *ops.Core { return f.opsCore }

// URL returns the project server's base URL.
func (f *Fleet) URL() string { return f.srv.URL() }

// Server returns the underlying project server.
func (f *Fleet) Server() *Server { return f.srv }

// VirtualHours maps elapsed wall time back into the scenario's virtual
// hours (the inverse of the event mapping).
func (f *Fleet) VirtualHours() float64 {
	return time.Since(f.start).Seconds() / f.scale / 3600
}

// deadline returns the scheduler's default timeout, in wall seconds.
func (f *Fleet) deadline() (wall float64) {
	f.srv.D.Server().Scheduler(func(s *boinc.Scheduler) { wall = s.Config().DefaultTimeout })
	return wall
}

// controlLocked computes the shaping a member should currently receive.
func (f *Fleet) controlLocked(m *member) boinc.ClientControl {
	rtt, ok := f.rttOverride[m.inst.Region]
	if !ok {
		rtt = m.inst.Region.RTT()
	}
	// Steady-state contention: the simulator slows each subtask by
	// load^exp once a client's busy slots oversubscribe its vCPUs.
	contention := 1.0
	if load := float64(f.cfg.TasksPerClient) * f.cfg.ThreadsPerTask / float64(m.inst.VCPU); load > 1 {
		contention = math.Pow(load, f.cfg.ContentionExp)
	}
	return boinc.ClientControl{
		// Pace to the simulator's per-instance execution model: te at
		// the reference clock, scaled by this instance's clock ratio
		// and steady-state slot contention.
		MinTaskSeconds:     f.cfg.BaseSubtaskSeconds * (cloud.ClientB.ClockGHz / m.inst.ClockGHz) * contention * f.scale,
		SlowFactor:         m.slow,
		PreemptProb:        f.preempt,
		PreemptHoldSeconds: f.deadline() + f.scale, // one virtual second past it
		RTTSeconds:         rtt * f.scale,
		Detach:             m.detached,
		Byzantine:          m.byzantine,
	}
}

func (f *Fleet) pushControlLocked(m *member) {
	f.srv.D.Server().SetClientControl(m.id, f.controlLocked(m))
}

func (f *Fleet) pushAllLocked() {
	for _, m := range f.members {
		if !m.departed || m.detached {
			f.pushControlLocked(m)
		}
	}
}

// spawnLocked launches (or relaunches) the daemon for a member whose
// control is already installed.
func (f *Fleet) spawnLocked(m *member) error {
	ctx, cancel := context.WithCancel(f.ctx)
	m.cancel = cancel
	done, err := f.cfg.Spawn(ctx, ClientConfig{
		ID:           m.id,
		ServerURL:    f.srv.URL(),
		Slots:        f.cfg.TasksPerClient,
		Poll:         f.cfg.Poll,
		Blobs:        f.blobRoot != "",
		BlobCacheDir: m.cacheDir,
		Log:          f.cfg.Log,
	})
	if err != nil {
		cancel()
		return fmt.Errorf("live: spawn %s: %w", m.id, err)
	}
	m.done = done
	return nil
}

// addClientLocked spawns one client daemon with its control installed.
func (f *Fleet) addClientLocked(pi cloud.PlacedInstance) (*member, error) {
	m := &member{
		id:   fmt.Sprintf("client-%02d-%s", f.nextID, pi.Name),
		inst: pi,
		slow: 1,
	}
	f.nextID++
	if f.blobRoot != "" {
		m.cacheDir = filepath.Join(f.blobRoot, m.id)
	}
	f.pushControlLocked(m)
	if err := f.spawnLocked(m); err != nil {
		return nil, err
	}
	f.cfg.Log.Info("client joined", "client", m.id, "instance", pi.Name, "region", string(pi.Region))
	f.members = append(f.members, m)
	return m, nil
}

// AddClient joins a new client of the given instance type in the given
// region (volunteer churn, flash crowds) and returns its ID.
func (f *Fleet) AddClient(inst cloud.InstanceType, region cloud.Region) string {
	if region == "" {
		region = cloud.USEast
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m, err := f.addClientLocked(cloud.PlacedInstance{InstanceType: inst, Region: region})
	if err != nil {
		f.cfg.Log.Warn("client spawn failed", "instance", inst.Name, "region", string(region), "err", err)
		return fmt.Sprintf("(spawn failed: %v)", err)
	}
	return m.id
}

// ActiveClients lists the IDs of clients currently in the pool, in join
// order (the simulator's convention, so `slow #i` addresses match).
func (f *Fleet) ActiveClients() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ids []string
	for _, m := range f.members {
		if !m.departed {
			ids = append(ids, m.id)
		}
	}
	return ids
}

// dropLocked marks a member gone on the scheduler side.
func (f *Fleet) dropLocked(m *member) {
	f.srv.D.Server().Scheduler(func(s *boinc.Scheduler) { s.DropClient(m.id) })
}

// departLocked retires one member: gracefully (the server's next reply
// tells the client to finish in-flight work and exit) or abruptly (its
// process/goroutine is killed; in-flight results are abandoned and
// recovered by the scheduler at the deadline).
func (f *Fleet) departLocked(m *member, graceful bool) {
	m.departed = true
	f.cfg.Log.Info("client departing", "client", m.id, "graceful", graceful)
	if graceful {
		m.detached = true
		f.pushControlLocked(m)
	} else {
		m.cancel()
	}
	f.dropLocked(m)
}

// activeLocked returns the active member with the given ID, or nil.
func (f *Fleet) activeLocked(id string) *member {
	for _, m := range f.members {
		if m.id == id && !m.departed {
			return m
		}
	}
	return nil
}

// departByID retires the named member, if active.
func (f *Fleet) departByID(id string, graceful bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.activeLocked(id)
	if m != nil {
		f.departLocked(m, graceful)
	}
	return m != nil
}

// departLIFO retires the n most recently joined active members.
func (f *Fleet) departLIFO(n int, graceful bool) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var gone []string
	for i := len(f.members) - 1; i >= 0 && len(gone) < n; i-- {
		if m := f.members[i]; !m.departed {
			f.departLocked(m, graceful)
			gone = append(gone, m.id)
		}
	}
	return gone
}

// RemoveClients abruptly departs the n most recently joined active
// clients (LIFO, so a flash crowd recedes in join order).
func (f *Fleet) RemoveClients(n int) []string { return f.departLIFO(n, false) }

// RemoveClient abruptly departs one client by ID.
func (f *Fleet) RemoveClient(id string) bool { return f.departByID(id, false) }

// DetachClient gracefully departs one client by ID. Only the real
// engine can express this — simulator departures are always abrupt.
func (f *Fleet) DetachClient(id string) bool { return f.departByID(id, true) }

// DetachClients gracefully departs the n most recently joined active
// clients (LIFO), returning their IDs.
func (f *Fleet) DetachClients(n int) []string { return f.departLIFO(n, true) }

// rejoinLocked revives one departed member under its original ID and —
// when the data plane is on — its original blob cache directory, so the
// volunteer returns with a warm digest cache and only fetches what it
// never finished. The scheduler revives the client automatically on its
// first work request.
func (f *Fleet) rejoinLocked(m *member) error {
	m.departed = false
	m.detached = false
	m.slow = 1
	f.pushControlLocked(m)
	if err := f.spawnLocked(m); err != nil {
		m.departed = true
		return err
	}
	f.cfg.Log.Info("client rejoined", "client", m.id, "warm_cache", m.cacheDir != "")
	return nil
}

// RejoinClient revives the named departed client (same ID, retained
// blob cache). Returns false when no such departed member exists.
func (f *Fleet) RejoinClient(id string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.members {
		if m.id == id && m.departed {
			if err := f.rejoinLocked(m); err != nil {
				f.cfg.Log.Warn("client rejoin failed", "client", id, "err", err)
				return false
			}
			return true
		}
	}
	return false
}

// RejoinClients revives the n most recently departed clients (LIFO —
// the mirror image of RemoveClients) and returns their IDs.
func (f *Fleet) RejoinClients(n int) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var back []string
	for i := len(f.members) - 1; i >= 0 && len(back) < n; i-- {
		if m := f.members[i]; m.departed {
			if err := f.rejoinLocked(m); err != nil {
				f.cfg.Log.Warn("client rejoin failed", "client", m.id, "err", err)
				continue
			}
			back = append(back, m.id)
		}
	}
	return back
}

// SetBlobKill arms (n > 0) or disarms (0) data-plane fault injection:
// every blob transfer is severed after n bytes, forcing clients through
// the Range-resume path. Each client attempt advances by n bytes, so
// transfers still converge. Returns false when the data plane is off.
func (f *Fleet) SetBlobKill(n int64) bool {
	svc := f.srv.Blobs()
	if svc == nil {
		return false
	}
	svc.SetKillAfter(n)
	return true
}

// SlowClient turns a client into a straggler (factor > 1) or restores
// it (factor 1).
func (f *Fleet) SlowClient(id string, factor float64) bool {
	if factor <= 0 {
		factor = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.activeLocked(id)
	if m != nil {
		m.slow = factor
		f.pushControlLocked(m)
	}
	return m != nil
}

// SetPreemptProb hot-changes the fleet-wide preemption probability.
func (f *Fleet) SetPreemptProb(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.preempt = p
	f.pushAllLocked()
}

// PreemptModel returns the §IV-E binomial model for the current
// deployment, in virtual time like the simulator's.
func (f *Fleet) PreemptModel(p float64) cloud.PreemptModel {
	return cloud.PreemptModel{
		P:               p,
		TaskExecSeconds: f.cfg.BaseSubtaskSeconds,
		TimeoutSeconds:  f.deadline() / f.scale,
	}
}

// FleetShape reports subtasks-per-epoch and tasks-per-client.
func (f *Fleet) FleetShape() (subtasks, tasksPerClient int) {
	return f.cfg.Server.Job.Subtasks, f.cfg.TasksPerClient
}

// SetRegionRTT overrides a region's round-trip latency (virtual
// seconds; clients in the region see it scaled on every HTTP call).
func (f *Fleet) SetRegionRTT(region cloud.Region, rtt float64) {
	if rtt < 0 {
		rtt = 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rttOverride[region] = rtt
	f.pushAllLocked()
}

// ClearRegionRTT restores a region's static latency.
func (f *Fleet) ClearRegionRTT(region cloud.Region) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.rttOverride, region)
	f.pushAllLocked()
}

// PServers returns the current parameter-server pool size.
func (f *Fleet) PServers() int { return f.srv.D.PServers() }

// SetPServers resizes the parameter-server pool (failover/recovery).
func (f *Fleet) SetPServers(n int) {
	if n < 1 {
		n = 1
	}
	f.srv.D.SetPServers(n)
	f.mu.Lock()
	if n > f.maxPS {
		f.maxPS = n
	}
	f.mu.Unlock()
}

// Scheduler, ClientSummaries, PolicyName and TimeScale are the ops seam
// (ops.Scheduled) over the project server's scheduler, which runs on
// the wall clock, scale wall seconds per virtual second.
func (f *Fleet) Scheduler(fn func(*boinc.Scheduler))    { f.srv.D.Server().Scheduler(fn) }
func (f *Fleet) ClientSummaries() []boinc.ClientSummary { return f.srv.D.Server().ClientSummaries() }
func (f *Fleet) PolicyName() string                     { return f.srv.D.Server().PolicyName() }
func (f *Fleet) TimeScale() float64                     { return f.scale }

// Retimed re-pushes every client's shaping after the ops core changed
// the deadline: the preempt hold must outlast it.
func (f *Fleet) Retimed() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pushAllLocked()
}

// SetByzantine switches an active client's adversarial behavior mid-run
// ("" restores honesty). The change reaches the daemon through
// ClientControl in its next scheduler reply.
func (f *Fleet) SetByzantine(id, behavior string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.activeLocked(id)
	if m != nil {
		m.byzantine = behavior
		f.pushControlLocked(m)
		f.cfg.Log.Info("client byzantine", "client", id, "behavior", behavior)
	}
	return m != nil
}

// ClientStatus lists every member, departed ones included, with its
// placement, shaping and pacing (ops.Lister).
func (f *Fleet) ClientStatus() []ops.ClientStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]ops.ClientStatus, 0, len(f.members))
	for _, m := range f.members {
		out = append(out, ops.ClientStatus{
			ID:          m.id,
			Instance:    m.inst.Name,
			Region:      string(m.inst.Region),
			Active:      !m.departed,
			Detached:    m.detached,
			Byzantine:   m.byzantine,
			SlowFactor:  m.slow,
			Slots:       f.cfg.TasksPerClient,
			PaceSeconds: f.controlLocked(m).MinTaskSeconds,
		})
	}
	return out
}

// Wait blocks until training completes (or ctx expires — the caller's
// wall-clock budget) and assembles the run outcome in the simulator's
// Result shape, with all times mapped back into virtual hours so
// assertions and fidelity reports compare like with like. The fleet is
// torn down before Wait returns.
func (f *Fleet) Wait(ctx context.Context) (*vcsim.Result, error) {
	var runErr error
	select {
	case <-f.srv.D.Done():
	case <-ctx.Done():
		runErr = fmt.Errorf("live: run exceeded its wall-clock budget (%w)", ctx.Err())
	}
	wall := time.Since(f.start).Seconds()
	f.Close()
	if runErr != nil {
		return nil, runErr
	}
	rr, err := f.srv.D.Result()
	if err != nil {
		return nil, err
	}

	name := f.cfg.Name
	if name == "" {
		name = fmt.Sprintf("P%dC%dT%d", f.cfg.Server.PServers, len(f.cfg.Fleet), f.cfg.TasksPerClient)
	}
	res := &vcsim.Result{
		Name:   name,
		Curve:  rr.Curve,
		Hours:  wall / f.scale / 3600,
		Epochs: rr.Epochs,
	}
	// The distributed job stamps curve points with wall hours; map them
	// into virtual hours like every other reported time.
	res.Curve.Points = append([]metrics.Point(nil), rr.Curve.Points...)
	for i := range res.Curve.Points {
		res.Curve.Points[i].Hours /= f.scale
	}
	f.mu.Lock()
	res.MaxPSUsed = f.maxPS
	f.mu.Unlock()
	srv := f.srv.D.Server()
	st := srv.SchedStats()
	res.Issued = st.Issued
	res.Reissued = st.Reissued
	res.Timeouts = st.Timeouts
	res.InvalidResults = st.Invalid
	res.QuorumRetries = st.QuorumRetries
	res.AssignMix = srv.AssignmentMix()
	res.BytesDownloaded, res.BytesUploaded = srv.Traffic()
	if svc := f.srv.Blobs(); svc != nil {
		res.BlobBytes = svc.ServedBytes()
		res.BlobResumes = int(svc.Resumes())
		res.BlobCacheHits = int(svc.CacheHits())
	}
	res.CkptEpoch = f.srv.D.CheckpointEpoch()
	res.CkptRestores = f.srv.D.CheckpointRestores()
	return res, nil
}

// Close tears the fleet down: clients are killed, the server stops.
// Idempotent.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeLocked()
}

func (f *Fleet) closeLocked() {
	f.cancel()
	f.srv.Close()
	// Give client daemons a moment to unwind so test runs stay clean
	// under the race detector.
	for _, m := range f.members {
		select {
		case <-m.done:
		case <-time.After(2 * time.Second):
		}
	}
	if f.blobRoot != "" {
		os.RemoveAll(f.blobRoot)
		f.blobRoot = ""
	}
}
