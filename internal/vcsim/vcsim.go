// Package vcsim runs paper-scale VCDL experiments inside the
// discrete-event simulator: fleets of heterogeneous preemptible clients,
// multiple parameter servers sharing a store, WAN transfer times and
// BOINC timeout/reissue fault tolerance — with the gradient mathematics
// executing for real so the accuracy curves are genuine, while durations
// come from a calibrated cost model ("virtual time, real math",
// DESIGN.md §4). Every figure of the paper's evaluation is regenerated
// through this package.
package vcsim

import (
	"fmt"
	"math"

	"vcdl/internal/baseline"
	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/metrics"
	"vcdl/internal/nn"
	"vcdl/internal/obs"
	"vcdl/internal/ps"
	"vcdl/internal/sim"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

// Config describes one simulated experiment. The paper's notation: Pn
// parameter servers, Cn clients (len(ClientInstances)), Tn simultaneous
// subtasks per client (TasksPerClient).
type Config struct {
	Job    core.JobConfig
	Corpus *data.Corpus

	// Name labels the run's Result and curves; empty derives the
	// PnCnTn topology string.
	Name string

	PServers        int
	ClientInstances []cloud.InstanceType
	TasksPerClient  int
	// Regions optionally spreads the fleet round-robin across geographic
	// regions (§III-E); every transfer then pays the region's round-trip
	// latency. Empty keeps the fleet server-local.
	Regions []cloud.Region

	// Store backs the shared server parameter copy; nil = eventual store
	// (the paper's Redis choice).
	Store store.Store
	// Policy overrides the scheduler's assignment policy; nil keeps the
	// default paper policy (boinc.NewPolicy("paper")), which is
	// byte-identical to the historical hard-coded behaviour. Seeded
	// policies (boinc.NewPolicy("random")) draw their randomness from
	// the run seed, so per-run determinism is preserved.
	Policy boinc.Policy
	// Rule overrides the server update rule for ablations; nil = VC-ASGD
	// with Job.Alpha via the parameter-server group (the paper path).
	Rule baseline.UpdateRule
	// Network is the WAN model; zero value = cloud.DefaultWAN().
	Network cloud.Network

	// BaseSubtaskSeconds is te at the reference clock with no slot
	// contention (paper: ≤ 2.4 min → 144 s).
	BaseSubtaskSeconds float64
	// AssimSeconds is the parameter-server service time per result
	// (validation + store update at paper scale).
	AssimSeconds float64
	// ThreadsPerTask and ContentionExp shape the client contention model:
	// running k simultaneous subtasks on v vCPUs slows each by
	// max(1, (k·ThreadsPerTask/v))^ContentionExp.
	ThreadsPerTask float64
	ContentionExp  float64
	// PSContention models the shared 8-vCPU server instance hosting all
	// parameter servers (plus Redis, Apache and MySQL, §IV-A): each
	// additional PS process slows every PS by this fraction, so server
	// throughput saturates — the paper observes it "decreases after P5".
	PSContention float64
	// TimeoutSeconds is the BOINC result deadline (to in §IV-E) the
	// scheduler starts with, as its default timeout.
	TimeoutSeconds float64
	// PreemptProb is the per-subtask-execution probability that the
	// preemptible instance is reclaimed before uploading (p in §IV-E; every
	// instance the paper uses has "a frequency of interruption < 5%").
	PreemptProb float64
	// RecordTest also evaluates test accuracy at each epoch (Figure 6).
	RecordTest bool
	// DisableSticky turns off client-side file caching (the A2 ablation:
	// without BOINC's sticky-file feature every subtask re-downloads its
	// inputs).
	DisableSticky bool
	// AutoScalePS enables the paper's §III-D idea of dynamically varying
	// the number of parameter servers with load: when the assimilation
	// queue exceeds the current PS count another PS process is started
	// (up to MaxPServers); idle capacity is retired back to PServers.
	AutoScalePS bool
	// MaxPServers caps autoscaling (default 8, one per server vCPU).
	MaxPServers int

	// Observer, when non-nil, receives run events (assimilations, epoch
	// closes, preemptions, timeout sweeps, completion) as they happen in
	// virtual time. Use Observers to attach more than one. Observers are
	// passive: they never change the Result.
	Observer Observer

	// Metrics, when non-nil, receives the run's metric families
	// (DESIGN.md §10): the scheduler's vcdl_sched_* lifecycle metrics and
	// the simulator's vcdl_sim_* event metrics, with histograms recorded
	// in virtual seconds. Like observers, an attached registry never
	// perturbs the run — the same seed produces the same Result and the
	// same golden trace with or without one.
	Metrics *obs.Registry
	// Trace, when non-nil, records per-workunit lifecycle spans: the
	// scheduler-side kinds (created/assigned/validated/…) plus the
	// simulator-only client-side kinds (compute_start, compute_end,
	// uploaded, assimilated), all stamped in virtual seconds.
	Trace *obs.Tracer

	// Backend selects the compute backend that executes subtask math
	// (DESIGN.md §8): "" or "real" runs the full kernel inline in the
	// event loop (the historical path); "parallel" computes on a worker
	// pool between a subtask's virtual start and end; "cached" memoizes
	// per (epoch, shard) so replicated/reissued copies compute once,
	// and computes the misses on that pool ("cached" is
	// "parallel+cached") unless the spec names another base
	// ("real+cached": the inline memo); "surrogate" substitutes a
	// subsampled kernel for capacity runs. real, parallel and both memo
	// forms produce byte-identical Results (only the Compute telemetry
	// differs); see core.BackendNames.
	Backend string
	// ComputeWorkers sizes the worker pool of parallel and cached
	// (0 = GOMAXPROCS). The pool size never changes results.
	ComputeWorkers int
	// Replication issues this many concurrent copies of every subtask
	// (BOINC's computational redundancy, §II-C); 0 or 1 keeps the single
	// copy the paper's experiments use. Only the canonical (first)
	// result assimilates, so curves are unchanged — redundancy buys
	// straggler tolerance at the price of duplicate math, which is
	// exactly what the cached backend refunds.
	Replication int

	// Byzantine turns the first ByzantineClients clients adversarial
	// with the named boinc.Byzantine* behavior (wrong-result, spoof,
	// deadline-game), driving the quorum/validation machinery from
	// inside the engine — the sim-mode mirror of the real-mode
	// ClientControl.Byzantine injection. Zero values keep every client
	// honest and the engine byte-identical to the historical path.
	Byzantine        string
	ByzantineClients int

	Seed int64
}

// DefaultConfig returns the paper-calibrated simulation parameters for a
// job/corpus with Cn round-robin Table-I clients.
func DefaultConfig(job core.JobConfig, corpus *data.Corpus, pn, cn, tn int) Config {
	return Config{
		Job:                job,
		Corpus:             corpus,
		PServers:           pn,
		ClientInstances:    cloud.DefaultFleet(cn),
		TasksPerClient:     tn,
		Network:            cloud.DefaultWAN(),
		BaseSubtaskSeconds: 144,
		AssimSeconds:       19.2,
		ThreadsPerTask:     4,
		ContentionExp:      0.72,
		PSContention:       0.5,
		TimeoutSeconds:     1800,
		Seed:               job.Seed,
	}
}

// DisplayName returns the run label results carry: Name when set,
// otherwise the derived PnCnTn topology string.
func (c *Config) DisplayName() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("P%dC%dT%d", c.PServers, len(c.ClientInstances), c.TasksPerClient)
}

// refClockGHz anchors the per-task speed model (ClientB's 2.5 GHz row).
const refClockGHz = 2.5

// Result is the outcome of one simulated run.
type Result struct {
	Name string
	// Curve is validation accuracy vs virtual hours, one point per epoch
	// with the per-epoch subtask accuracy range (the paper's error bars).
	Curve metrics.Series
	// TestCurve is test accuracy per epoch (when RecordTest).
	TestCurve metrics.Series
	// Hours is total virtual training time.
	Hours float64
	// Epochs holds per-epoch aggregates.
	Epochs []ps.EpochSummary

	// Fault-tolerance and traffic accounting. InvalidResults counts
	// results rejected by validation; QuorumRetries counts copies
	// re-enqueued to replace failed, expired or invalid results (both
	// modes — the adversarial-client telemetry).
	Issued, Reissued, Timeouts    int
	InvalidResults, QuorumRetries int
	BytesDownloaded               int64
	BytesUploaded                 int64
	StoreStats                    store.Stats
	// AssignMix counts issued assignments per scheduling policy (runs
	// with hot policy swaps split across the policies that decided).
	AssignMix map[string]int

	// Cost of the fleet (server + clients) for the run duration.
	CostStandardUSD    float64
	CostPreemptibleUSD float64

	// Autoscaler telemetry (when AutoScalePS is on).
	PSScaleUps, PSScaleDowns int
	MaxPSUsed                int

	// Data-plane and checkpoint telemetry. Real-mode only: the simulator
	// has no byte-level data plane, so sim results leave these zero and
	// scenario assertions on them are real-only (DESIGN.md §11).
	BlobBytes     int64
	BlobResumes   int
	BlobCacheHits int
	CkptEpoch     int
	CkptRestores  int

	// Compute is the compute-backend telemetry (cache hits, worker-pool
	// overlap). It is the one Result field that legitimately differs
	// between equivalent backends, so cross-backend equivalence checks
	// zero it before comparing (DESIGN.md §8).
	Compute core.BackendStats
}

// simClient is one simulated client instance.
type simClient struct {
	id    string
	inst  cloud.PlacedInstance
	slots int
	busy  int
	cache map[string]bool
	// slow multiplies subtask execution time (1 = nominal). Scenario
	// injection uses it to turn a client into a straggler mid-run.
	slow float64
	// departed marks a client that left the volunteer pool: it stops
	// requesting work and its in-flight results are lost (the scheduler
	// recovers them at the deadline, like any vanished BOINC host).
	departed bool
	// byzantine names the client's adversarial behavior ("" = honest;
	// see boinc.ByzantineBehaviors). Checked only on non-empty values, so
	// honest runs take exactly the historical code path.
	byzantine string
	// joinedAt/departedAt bound the client's billable lifetime in virtual
	// seconds (departedAt < 0 = still active at run end).
	joinedAt   float64
	departedAt float64
}

// newSimClient builds one client; i numbers it within the run.
func newSimClient(i int, inst cloud.PlacedInstance, slots int, joinedAt float64) *simClient {
	return &simClient{
		id:         fmt.Sprintf("client-%02d-%s", i, inst.Name),
		inst:       inst,
		slots:      slots,
		cache:      make(map[string]bool),
		slow:       1,
		joinedAt:   joinedAt,
		departedAt: -1,
	}
}

// contention returns the per-task slowdown with k busy slots.
func (c *Config) contention(k int, inst cloud.InstanceType) float64 {
	load := float64(k) * c.ThreadsPerTask / float64(inst.VCPU)
	if load <= 1 {
		return 1
	}
	return math.Pow(load, c.ContentionExp)
}

// Run executes the simulated experiment to completion.
func Run(cfg Config) (*Result, error) {
	s, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// run carries the mutable state of one simulation.
type run struct {
	cfg   Config
	eng   *sim.Engine
	sched *boinc.Scheduler
	group *ps.Group
	st    store.Store
	assim *sim.Server

	backend core.Backend
	trainer *core.Trainer
	testEv  *core.Evaluator
	shards  []*data.Dataset
	clients []*simClient

	// rule-based (ablation) server state; nil when using the ps.Group.
	rule         baseline.UpdateRule
	ruleServer   []float64
	syncBuffer   [][]float64
	epochParams  map[int][]float64
	paramBytes   int
	shardBytes   []int
	modelBytes   int
	res          *Result
	obs          Observer
	finished     bool
	sweepPending bool

	// rttOverride replaces a region's static round-trip latency for the
	// rest of the run (scenario outage injection).
	rttOverride map[cloud.Region]float64
	// nextClient numbers clients joined after start so churned fleets
	// keep unique, stable IDs.
	nextClient int

	// launchTasks/launchSlots collect the subtasks one tryAssign wave
	// schedules, flushed as a single core.LaunchBatch call (reused
	// scratch, see flushLaunches).
	launchTasks []core.Subtask
	launchSlots []*futSlot

	// pool is the backend's worker pool, which scores canonical results
	// off the event loop; nil when the backend computes inline.
	pool core.Pool
	// scoring holds the results blended on that path and not yet
	// recorded, oldest first; blends counts them all, the way the live
	// server numbers its tickets.
	scoring []*score
	blends  int
	// scorers are the evaluators of that path, one per score that may
	// be outstanding, so scores on different workers run at once.
	scorers []*core.Evaluator
}

func newRun(cfg Config, st store.Store, backend core.Backend) *run {
	name := cfg.DisplayName()
	schedCfg := boinc.DefaultSchedulerConfig()
	schedCfg.DefaultTimeout = cfg.TimeoutSeconds
	schedCfg.DefaultMaxErrors = 1 << 20 // experiments never abandon a subtask
	schedCfg.StickyAffinity = !cfg.DisableSticky
	schedCfg.Seed = cfg.Seed
	sched := boinc.NewScheduler(schedCfg)
	if cfg.Policy != nil {
		sched.SetPolicy(cfg.Policy)
	}
	// Instrumentation attaches before the first workunit exists so
	// created events are never missed. Sinks only derive values from
	// scheduler state and the virtual clock the run already passes in,
	// so attaching them cannot change the event order or RNG stream.
	if cfg.Metrics != nil {
		sched.AddSink(boinc.MetricsSink(cfg.Metrics))
	}
	if cfg.Trace != nil {
		sched.AddSink(boinc.TraceSink(cfg.Trace))
	}
	observer := cfg.Observer
	if cfg.Metrics != nil {
		bridge := newMetricsObserver(cfg.Metrics)
		if observer != nil {
			observer = Observers{bridge, observer}
		} else {
			observer = bridge
		}
	}
	r := &run{
		cfg:         cfg,
		eng:         sim.NewEngine(cfg.Seed),
		sched:       sched,
		st:          st,
		backend:     backend,
		pool:        core.PoolOf(backend),
		shards:      cfg.Job.SplitShards(cfg.Corpus),
		epochParams: make(map[int][]float64),
		rule:        cfg.Rule,
		res:         &Result{Name: name},
		obs:         observer,
		rttOverride: make(map[cloud.Region]float64),
	}
	r.res.Curve.Name = name
	r.res.TestCurve.Name = name + "-test"
	return r
}

func (r *run) start() error {
	cfg := r.cfg
	r.group = ps.NewGroup(cfg.PServers, r.st, cfg.Job.Alpha)
	r.assim = sim.NewServer(r.eng, cfg.PServers)
	r.trainer = core.NewTrainer(cfg.Job, cfg.Corpus.Val, r.group, 1)
	if cfg.RecordTest {
		r.testEv = core.NewEvaluator(cfg.Job.Builder, cfg.Corpus.Test, cfg.Job.ValSubset, cfg.Job.BatchSize*4)
	}

	// Initialize the model (with optional serial warmstarting, §II-B) and
	// size the transfer payloads.
	params := core.InitialParams(nn.NewNetwork(cfg.Job.Builder), cfg.Job, cfg.Corpus.Train)
	warmSeconds := float64(cfg.Job.WarmstartEpochs) * SerialSecondsPerEpoch(cfg)
	r.paramBytes = wire.RawSize(len(params))
	r.modelBytes = 4096 // model .json spec; small, like the paper's 269 KB
	r.shardBytes = make([]int, len(r.shards))
	for i, s := range r.shards {
		// Approximate the compressed shard size without running gzip for
		// every shard: raw float64 payload × a typical compression factor.
		r.shardBytes[i] = int(float64(wire.RawSize(s.X.Size())) * 0.8)
	}
	if r.rule == nil {
		if err := r.group.Publish(params); err != nil {
			return err
		}
	} else {
		r.ruleServer = append([]float64(nil), params...)
	}

	for i, inst := range cloud.Place(cfg.ClientInstances, cfg.Regions) {
		r.clients = append(r.clients, newSimClient(i, inst, cfg.TasksPerClient, 0))
	}
	for i := 0; i < cfg.ByzantineClients && i < len(r.clients); i++ {
		r.clients[i].byzantine = cfg.Byzantine
	}
	r.nextClient = len(r.clients)
	if warmSeconds > 0 {
		// The serial warmstart occupies the fleet's clock before any
		// subtask is generated.
		r.eng.Schedule(warmSeconds, func() {
			if err := r.generateEpoch(1); err != nil {
				panic("vcsim: generate epoch 1: " + err.Error())
			}
			r.wakeClients()
		})
		return nil
	}
	if err := r.generateEpoch(1); err != nil {
		return err
	}
	r.wakeClients()
	return nil
}

// currentServer returns the live server parameter vector.
func (r *run) currentServer() ([]float64, error) {
	if r.rule != nil {
		return append([]float64(nil), r.ruleServer...), nil
	}
	return r.group.Current()
}

// generateEpoch snapshots the server copy and queues the epoch's subtasks.
func (r *run) generateEpoch(epoch int) error {
	snapshot, err := r.currentServer()
	if err != nil {
		return err
	}
	r.epochParams[epoch] = snapshot
	delete(r.epochParams, epoch-1)
	// Closed epochs can never launch again (their workunits are all
	// done), so the backend may drop memoized state below this epoch.
	r.backend.Retire(epoch)
	if r.rule != nil && r.rule.Synchronous() {
		r.syncBuffer = r.syncBuffer[:0]
	}
	pf := fmt.Sprintf("params_e%03d", epoch)
	for i := range r.shards {
		r.sched.AddWorkunit(boinc.Workunit{
			Name:       fmt.Sprintf("train_e%03d_s%03d", epoch, i),
			InputFiles: []string{"model.json", pf, fmt.Sprintf("shard_%03d", i)},
			// Payload encodes epoch and shard compactly.
			Payload:     []byte(fmt.Sprintf("%d/%d", epoch, i)),
			Replication: r.cfg.Replication,
		})
	}
	return nil
}

// wakeClients lets every client with free slots request work.
func (r *run) wakeClients() {
	for _, c := range r.clients {
		r.tryAssign(c)
	}
}

// tryAssign pulls one batch of work for an idle client. Like a BOINC
// client's work fetch, a client requests up to Tn workunits at once and
// only asks again when the whole batch has finished — this wave
// granularity, combined with heterogeneous client speeds, produces the
// straggler effects behind the paper's Figure 3.
func (r *run) tryAssign(c *simClient) {
	if r.finished || c.departed || c.busy > 0 {
		return
	}
	asns := r.sched.RequestWork(c.id, r.eng.Now(), c.slots)
	if len(asns) == 0 {
		return
	}
	for _, asn := range asns {
		r.startSubtask(c, asn, len(asns))
	}
	r.flushLaunches()
}

// futSlot defers a subtask's future: startSubtask fills the slot's
// completion callback immediately, and flushLaunches binds the real
// future before any event can run. Safe because the engine is
// single-threaded and never executes a scheduled callback until the
// current one (the one calling tryAssign) returns.
type futSlot struct{ fut core.Future }

func (s *futSlot) Wait() ([]float64, core.ExecStats) { return s.fut.Wait() }

// flushLaunches hands the wave's collected subtasks to the backend as
// one epoch-batched launch. Launch order matches the per-assignment
// order startSubtask queued them in, so backend stats and results are
// identical to the historical launch-inside-the-loop path.
func (r *run) flushLaunches() {
	if len(r.launchTasks) == 0 {
		return
	}
	futs := core.LaunchBatch(r.backend, r.launchTasks)
	for i, s := range r.launchSlots {
		s.fut = futs[i]
	}
	r.launchTasks = r.launchTasks[:0]
	r.launchSlots = r.launchSlots[:0]
}

// xfer returns the transfer time for n bytes to or from a client,
// honouring any scenario-injected regional RTT override.
func (r *run) xfer(n int, c *simClient) float64 {
	rtt, ok := r.rttOverride[c.inst.Region]
	if !ok {
		rtt = c.inst.Region.RTT()
	}
	return r.cfg.Network.TransferTimeRTT(n, rtt, c.inst.InstanceType, r.eng.Rand())
}

// parsePayload decodes "epoch/shard".
func parsePayload(p []byte) (epoch, shard int, err error) {
	_, err = fmt.Sscanf(string(p), "%d/%d", &epoch, &shard)
	return epoch, shard, err
}

// spoofSeconds is the token "fabrication" time a spoofing client spends
// per assignment before uploading garbage: near-instant compared to
// genuine execution, which is the whole attack.
const spoofSeconds = 1.0

// startSpoofed models a spoofing client's assignment: no downloads, no
// math — after a token fabrication delay it uploads bytes the validator
// rejects, so the workunit is reissued and the client's reliability
// decays (boinc.ByzantineSpoof).
func (r *run) startSpoofed(c *simClient, asn boinc.Assignment) {
	c.busy++
	r.eng.Schedule(spoofSeconds, func() {
		if c.departed {
			return
		}
		c.busy--
		r.tryAssign(c)
		up := r.xfer(r.paramBytes, c)
		r.eng.Schedule(up, func() {
			if c.departed {
				return
			}
			r.res.BytesUploaded += int64(r.paramBytes)
			r.sched.CompleteResult(asn.ResultID, false, r.eng.Now())
		})
	})
	r.scheduleSweep()
}

// startSubtask models download, execution (with contention), preemption
// and upload for one assignment. wave is the number of subtasks running
// simultaneously in this batch, which sets the contention factor.
// Byzantine clients divert from the honest path at the last possible
// moment (spoofers skip it entirely), so every branch is gated on a
// non-empty behavior and honest runs stay byte-identical.
func (r *run) startSubtask(c *simClient, asn boinc.Assignment, wave int) {
	if c.byzantine == boinc.ByzantineSpoof {
		r.startSpoofed(c, asn)
		return
	}
	epoch, shard, err := parsePayload(asn.Payload)
	if err != nil {
		panic("vcsim: bad payload " + string(asn.Payload))
	}
	c.busy++
	// Download whatever is not sticky-cached.
	if r.cfg.DisableSticky {
		c.cache = make(map[string]bool)
	}
	newBytes := 0
	for _, f := range asn.InputFiles {
		if c.cache[f] {
			continue
		}
		c.cache[f] = true
		switch {
		case f == "model.json":
			newBytes += r.modelBytes
		case len(f) > 6 && f[:6] == "shard_":
			newBytes += r.shardBytes[shard]
		default: // params file
			newBytes += r.paramBytes
		}
	}
	r.res.BytesDownloaded += int64(newBytes)
	dl := 0.0
	if newBytes > 0 {
		dl = r.xfer(newBytes, c)
	}
	execT := r.cfg.BaseSubtaskSeconds * (refClockGHz / c.inst.ClockGHz) * r.cfg.contention(wave, c.inst.InstanceType)
	if c.slow > 0 {
		execT *= c.slow
	}

	// Preemption: the instance is reclaimed during this execution; the
	// result never uploads and the slot is only recovered (replacement
	// instance) at the scheduler deadline.
	if r.cfg.PreemptProb > 0 && r.eng.Rand().Float64() < r.cfg.PreemptProb {
		if r.obs != nil {
			r.obs.OnPreempt(PreemptEvent{Client: c.id, Epoch: epoch, Shard: shard, Hours: r.eng.NowHours()})
		}
		wait := asn.Deadline - r.eng.Now()
		r.eng.Schedule(wait+1, func() {
			if c.departed {
				return
			}
			c.busy--
			c.cache = make(map[string]bool) // replacement starts cold
			r.sweep()
			// The replacement instance asks for work itself: the sweep only
			// wakes clients when it expired something, and by now the lost
			// result may already have been expired by an earlier sweep —
			// without this request a fully-preempted fleet deadlocks with
			// reissued work pending and every client idle.
			r.tryAssign(c)
		})
		return
	}

	// Execution begins once the download finishes; the span event is
	// stamped with that already-determined virtual time, not a clock read.
	r.trace(asn.WUID, obs.KindComputeStart, c.id, r.eng.Now()+dl)
	// The subtask's output is a pure function of (epoch snapshot, shard,
	// seed) — none of the engine's RNG is consumed — so the computation
	// is queued now, when execution is scheduled (and handed to the
	// backend in one LaunchBatch when the wave's assignments are all
	// queued), then awaited in the completion callback: the parallel
	// backend overlaps the math with event processing, the cached
	// backend resolves replicated/reissued copies to one execution, and
	// the default real backend defers the work to the callback exactly
	// as the historical inline path did.
	fut := &futSlot{}
	r.launchTasks = append(r.launchTasks, core.Subtask{
		Epoch:  epoch,
		Shard:  shard,
		Seed:   core.SubtaskSeed(r.cfg.Seed, epoch, shard),
		Params: r.epochParams[epoch],
		Data:   r.shards[shard],
	})
	r.launchSlots = append(r.launchSlots, fut)
	r.eng.Schedule(dl+execT, func() {
		if c.departed {
			// The client left mid-execution; its result is lost and the
			// scheduler reissues the workunit at the deadline.
			return
		}
		updated, _ := fut.Wait()
		c.busy--
		r.trace(asn.WUID, obs.KindComputeEnd, c.id, r.eng.Now())
		r.tryAssign(c)
		if c.byzantine == boinc.ByzantineDeadlineGame {
			// Hoard the finished result: it is never uploaded, so the
			// scheduler expires it at the deadline and reissues.
			return
		}
		up := r.xfer(r.paramBytes, c)
		r.eng.Schedule(up, func() {
			if c.departed {
				// The client vanished mid-upload: the result never
				// arrives (and is not billed as delivered traffic).
				return
			}
			r.res.BytesUploaded += int64(r.paramBytes)
			r.trace(asn.WUID, obs.KindUploaded, c.id, r.eng.Now())
			// Wrong-result clients upload corrupted output: the
			// validator rejects it, and canonical can never be true.
			valid := c.byzantine != boinc.ByzantineWrongResult
			if _, canonical, err := r.sched.CompleteResult(asn.ResultID, valid, r.eng.Now()); err == nil && canonical {
				r.autoscale()
				r.assim.Submit(r.assimService(), func() {
					r.trace(asn.WUID, obs.KindAssimilated, c.id, r.eng.Now())
					r.assimilate(epoch, updated)
				})
			}
		})
	})
	r.scheduleSweep()
}

// trace records one client-side lifecycle span event at virtual time t
// (a no-op without a tracer). Only the simulator can contribute these
// kinds — it watches the whole lifecycle from one event loop.
func (r *run) trace(wu int64, kind, client string, t float64) {
	if r.cfg.Trace == nil {
		return
	}
	r.cfg.Trace.Record(obs.SpanEvent{WU: wu, Kind: kind, T: t, Client: client})
}

// assimService is the PS service time per result: validation plus the
// calibrated store update cost for the parameter blob, inflated by the
// contention of the parameter-server processes currently sharing one
// server instance.
func (r *run) assimService() float64 {
	storeCost := 2 * store.EventualProfile.Cost(r.paramBytes).Seconds()
	if _, ok := r.st.(*store.Strong); ok {
		storeCost = 2 * store.StrongProfile.Cost(r.paramBytes).Seconds()
	}
	// Each product is rounded by float64(...) so that no GOARCH fuses it
	// into a multiply-add: this sum sets virtual event times.
	contention := 1 + float64(r.cfg.PSContention*float64(r.assim.Slots()-1))
	return float64(r.cfg.AssimSeconds*contention) + storeCost
}

// autoscale implements §III-D's dynamic parameter-server pool: grow when
// the assimilation backlog exceeds the pool, shrink when the pool idles.
func (r *run) autoscale() {
	if !r.cfg.AutoScalePS {
		return
	}
	max := r.cfg.MaxPServers
	if max <= 0 {
		max = 8
	}
	slots := r.assim.Slots()
	switch {
	case r.assim.QueueLen() > slots && slots < max:
		r.assim.SetSlots(slots + 1)
		r.res.PSScaleUps++
		if slots+1 > r.res.MaxPSUsed {
			r.res.MaxPSUsed = slots + 1
		}
	case r.assim.QueueLen() == 0 && r.assim.Busy() < slots && slots > r.cfg.PServers:
		r.assim.SetSlots(slots - 1)
		r.res.PSScaleDowns++
	}
}

// assimilate hands one canonical result to the Trainer — or, under an
// ablation rule, merges it here and has the Trainer record the score —
// then reports to the observers and publishes the next epoch.
func (r *run) assimilate(epoch int, updated []float64) {
	if r.finished {
		return
	}
	if r.rule == nil && r.pool != nil {
		r.assimilatePooled(epoch, updated)
		return
	}
	var out core.Assimilated
	switch {
	case r.rule == nil:
		var err error
		if out, err = r.trainer.Assimilate(updated, epoch); err != nil {
			panic("vcsim: assimilate: " + err.Error())
		}
	case r.rule.Synchronous():
		// The server is unchanged until the barrier; the epoch's accuracy
		// is the post-merge value.
		r.syncBuffer = append(r.syncBuffer, updated)
		if len(r.syncBuffer) == r.cfg.Job.Subtasks {
			r.rule.MergeAll(r.ruleServer, r.syncBuffer, r.epochParams[epoch], epoch)
		}
		acc := r.trainer.Score(r.ruleServer)
		out = r.trainer.Record(acc, func(s ps.EpochSummary) ps.EpochSummary {
			s.Mean, s.Lo, s.Hi, s.Std = acc, acc, acc, 0
			return s
		})
	default:
		r.rule.Merge(r.ruleServer, updated, r.epochParams[epoch], epoch)
		out = r.trainer.Record(r.trainer.Score(r.ruleServer), nil)
	}

	if r.obs != nil {
		r.obs.OnAssimilate(AssimEvent{Epoch: epoch, Hours: r.eng.NowHours(), Accuracy: out.Accuracy, Queue: r.assim.QueueLen()})
	}
	r.closeEpoch(out)
}

// scoresPerWorker bounds the results blended and not yet recorded: one
// scoring and one queued per worker keeps the pool fed while the loop
// blends, and each of them holds a parameter vector. At one per worker
// a worker idled while the loop waited for the oldest score.
const scoresPerWorker = 2

// score is one canonical result blended on the event loop and scored on
// the backend's pool. Hours and Queue are its AssimEvent's, read when it
// was blended.
type score struct {
	held  ps.Held
	epoch int
	hours float64
	queue int
	acc   float64
	done  <-chan struct{}
}

// assimilatePooled is assimilate when the backend computes on a worker
// pool (DESIGN.md §15, "Scoring in sim"). The loop blends in arrival
// order and hands the held read-back to the pool to score while it goes
// on; recording and the observers stay on the loop, in blend order. The
// blend that fills an epoch waits for every score up to its own, so the
// epoch closes at the same event as when scoring was inline. At most
// scoresPerWorker held read-backs per worker are blended and unrecorded;
// the next blend waits for the oldest.
func (r *run) assimilatePooled(epoch int, updated []float64) {
	for len(r.scoring) > 0 && scored(r.scoring[0]) {
		r.recordOldest()
	}
	bound := scoresPerWorker * r.pool.Size()
	if len(r.scoring) == bound {
		r.recordOldest()
	}
	held, err := r.trainer.Blend(updated, epoch)
	if err != nil {
		panic("vcsim: assimilate: " + err.Error())
	}
	// Blend k scores on evaluator k mod bound. The last blend to use it,
	// k−bound, is recorded: at most bound−1 younger ones are outstanding.
	if len(r.scorers) < bound {
		r.scorers = append(r.scorers, r.trainer.Scorer())
	}
	ev := r.scorers[r.blends%bound]
	s := &score{held: held, epoch: epoch, hours: r.eng.NowHours(), queue: r.assim.QueueLen()}
	s.done = r.pool.Go(func() { s.acc = ev.Accuracy(held.Params) })
	r.scoring = append(r.scoring, s)
	if r.blends++; r.blends%r.cfg.Job.Subtasks != 0 {
		return
	}
	var out core.Assimilated
	for len(r.scoring) > 0 {
		out = r.recordOldest()
	}
	r.closeEpoch(out)
}

// scored reports whether s's score has been taken.
func scored(s *score) bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// recordOldest waits for the oldest outstanding score, records it,
// releases its read-back and reports it to the observers.
func (r *run) recordOldest() core.Assimilated {
	s := r.scoring[0]
	r.scoring[0] = nil
	r.scoring = r.scoring[1:]
	<-s.done
	out, err := r.trainer.RecordScore(s.acc, s.held.Params)
	s.held.Release()
	if err != nil {
		panic("vcsim: assimilate: " + err.Error())
	}
	if r.obs != nil {
		r.obs.OnAssimilate(AssimEvent{Epoch: s.epoch, Hours: s.hours, Accuracy: out.Accuracy, Queue: s.queue})
	}
	return out
}

// closeEpoch is assimilate's tail once a result is recorded: if it
// closed an epoch, book the epoch and stop or publish the next one.
func (r *run) closeEpoch(out core.Assimilated) {
	if !out.Closed {
		return
	}
	r.res.Epochs = append(r.res.Epochs, out.Epoch)
	r.res.Curve.Add(out.Epoch.Point(r.eng.NowHours()))
	if r.obs != nil {
		r.obs.OnEpoch(EpochEvent{Hours: r.eng.NowHours(), Summary: out.Epoch})
	}
	if r.testEv != nil {
		if cur, err := r.currentServer(); err == nil {
			r.res.TestCurve.Add(metrics.Point{Epoch: out.Epoch.Epoch, Hours: r.eng.NowHours(), Value: r.testEv.Accuracy(cur)})
		}
	}
	if out.Stop {
		r.finished = true
		return
	}
	if err := r.generateEpoch(out.Epoch.Epoch + 1); err != nil {
		panic("vcsim: generate epoch: " + err.Error())
	}
	r.wakeClients()
}

// scheduleSweep arms a timeout sweep at the next outstanding deadline.
func (r *run) scheduleSweep() {
	if r.sweepPending || r.finished {
		return
	}
	d, ok := r.sched.NextDeadline()
	if !ok {
		return
	}
	r.sweepPending = true
	r.eng.ScheduleAt(d+0.5, func() {
		r.sweepPending = false
		r.sweep()
	})
}

// sweep expires overdue results and redistributes reissued work.
func (r *run) sweep() {
	if r.finished {
		return
	}
	if expired := r.sched.ExpireTimeouts(r.eng.Now()); len(expired) > 0 {
		if r.obs != nil {
			r.obs.OnTimeout(TimeoutEvent{Hours: r.eng.NowHours(), Expired: len(expired)})
		}
		r.wakeClients()
	}
	r.scheduleSweep()
}

// finish assembles the Result.
func (r *run) finish() (*Result, error) {
	// Record what was blended and not yet recorded (a run whose event
	// queue drained mid-epoch), then drain stray compute workers
	// (futures whose completion never fired, e.g. departed clients)
	// before reading the telemetry.
	for len(r.scoring) > 0 {
		r.recordOldest()
	}
	r.backend.Close()
	r.res.Compute = r.backend.Stats()
	r.res.Hours = r.eng.NowHours()
	r.res.Issued = r.sched.Issued
	r.res.Reissued = r.sched.Reissued
	r.res.Timeouts = r.sched.Timeouts
	r.res.InvalidResults = r.sched.Invalid
	r.res.QuorumRetries = r.sched.QuorumRetries
	r.res.AssignMix = r.sched.AssignmentMix()
	r.res.StoreStats = r.st.Stats()
	if r.res.MaxPSUsed < r.cfg.PServers {
		r.res.MaxPSUsed = r.cfg.PServers
	}
	// Fleet cost: the server bills for the whole run; each client bills
	// for the hours it was actually in the pool (churned fleets pay only
	// their active window; static fleets reduce to rate × total hours).
	r.res.CostStandardUSD = cloud.ServerInstance.HourlyUSD * r.res.Hours
	r.res.CostPreemptibleUSD = cloud.ServerInstance.PreemptibleUSD * r.res.Hours
	for _, c := range r.clients {
		until := c.departedAt
		if until < 0 {
			until = r.eng.Now()
		}
		activeH := (until - c.joinedAt) / 3600
		if activeH < 0 {
			activeH = 0
		}
		r.res.CostStandardUSD += float64(c.inst.HourlyUSD * activeH)
		r.res.CostPreemptibleUSD += float64(c.inst.PreemptibleUSD * activeH)
	}
	if r.obs != nil {
		r.obs.OnFinish(r.res)
	}
	return r.res, nil
}
