package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"vcdl/internal/data"
	"vcdl/internal/tensor"
)

// defaultComputeWorkers sizes a pool when the caller passes <= 0.
func defaultComputeWorkers() int { return runtime.GOMAXPROCS(0) }

// This file is the compute-backend layer (DESIGN.md §8): the seam between
// the discrete-event simulator and the subtask mathematics. A subtask's
// output is a pure function of (epoch parameter snapshot, shard, seed) —
// every engine derives the seed with SubtaskSeed and the math never
// touches the engine RNG — so the *when* and *where* of the
// computation are free choices: inline in the event loop (real),
// overlapped with event processing on a worker pool of every core
// (parallel), memoized across the scheduler's replicated/reissued copies
// on top of either (cached, which computes its misses on the pool unless
// the spec names another base), or approximated by a subsampled kernel
// (surrogate). Virtual time and Results are identical across real,
// parallel and both memo forms by construction; only wall clock and the
// BackendStats telemetry differ.

// Subtask identifies one unit of client compute: train from the epoch's
// parameter snapshot on one shard with the derived deterministic seed.
// Params and Data are read-only — backends and their workers must not
// mutate them.
type Subtask struct {
	Epoch int
	Shard int
	Seed  int64
	// Params is the epoch parameter snapshot the subtask trains from.
	Params []float64
	// Data is the subtask's training shard.
	Data *data.Dataset
}

// Future resolves one launched subtask computation. Wait is idempotent
// and must be called from the goroutine that drives the simulation (the
// event loop); only the parallel backend's internal workers run off that
// goroutine.
type Future interface {
	Wait() ([]float64, ExecStats)
}

// Backend computes subtask math for the simulator. Launch is called when
// the subtask's execution is *scheduled* (virtual start), Wait when it
// *completes* (virtual end) — the gap is what the parallel backend
// overlaps with event processing. Launch, Wait, Retire, Stats and Close
// are event-loop-thread-only.
type Backend interface {
	// Name returns the backend's canonical spec string.
	Name() string
	// Launch begins computing the subtask and returns its future.
	Launch(t Subtask) Future
	// Retire tells the backend no further launches will reference epochs
	// below epoch, so memoized state for them may be dropped.
	Retire(epoch int)
	// Stats returns the backend's compute telemetry.
	Stats() BackendStats
	// Close releases backend resources (worker pools drain).
	Close()
}

// BatchLauncher is the optional epoch-batching extension of Backend.
// The simulator hands every subtask scheduled inside one event callback
// to LaunchBatch in a single call, which lets pooled backends enqueue
// the whole batch without per-launch dispatch churn and lets caches
// split hits from misses before touching the inner backend. Futures are
// returned in input order; semantics are identical to calling Launch on
// each subtask in order.
type BatchLauncher interface {
	LaunchBatch(ts []Subtask) []Future
}

// LaunchBatch launches ts on b, through the batched path when b
// implements BatchLauncher and through per-subtask Launch otherwise —
// the shim that keeps the Backend seam compatible for third-party
// backends registered via RegisterBackend.
func LaunchBatch(b Backend, ts []Subtask) []Future {
	if bl, ok := b.(BatchLauncher); ok {
		return bl.LaunchBatch(ts)
	}
	futs := make([]Future, len(ts))
	for i, t := range ts {
		futs[i] = b.Launch(t)
	}
	return futs
}

// Pool is the optional worker-pool extension of Backend, for backends
// that compute on goroutines of their own: it runs jobs other than
// subtasks on those workers, and the simulator scores each canonical
// result there instead of on its event loop. Go and Size are
// event-loop-thread-only; the jobs run on the workers.
type Pool interface {
	// Go queues job ahead of any queued subtask and returns a channel
	// that is closed once job has run. Like Launch it blocks while the
	// queue is full (a few jobs per worker). Jobs are not subtasks: no
	// BackendStats counter sees them.
	Go(job func()) <-chan struct{}
	// Size is the number of workers.
	Size() int
}

// PoolOf returns the worker pool b computes on — its own, or under the
// memo layer its base's — or nil when b computes inline.
func PoolOf(b Backend) Pool {
	if c, ok := b.(*cachedBackend); ok {
		b = c.inner
	}
	p, _ := b.(Pool)
	return p
}

// BackendStats is the compute telemetry a run's Result carries. All
// fields are updated on the event-loop thread, so for a fixed config and
// backend they are deterministic; across *different* backends (or worker
// counts) they legitimately differ — equivalence comparisons zero this
// struct (DESIGN.md §8).
type BackendStats struct {
	// Backend is the canonical spec string ("real", "parallel+cached", …).
	Backend string
	// Launched counts subtasks handed to the backend.
	Launched int
	// Computed counts executions that actually ran the (real or
	// surrogate) math; with a cache, Launched − Computed is the work
	// replication/reissue would have duplicated.
	Computed int
	// CacheHits/CacheMisses are the memoization counters (cached only).
	CacheHits   int
	CacheMisses int
	// Workers is the parallel pool size (0 for inline backends) and
	// MaxInFlight the peak number of launched-but-not-yet-awaited
	// subtasks — the overlap a pool of that size could exploit.
	Workers     int
	MaxInFlight int
}

// BackendFactory builds one base backend for a job. workers is only
// meaningful for pooled backends (<= 0 selects the default pool size).
type BackendFactory func(cfg JobConfig, workers int) Backend

var backendRegistry = map[string]BackendFactory{
	"real":      func(cfg JobConfig, _ int) Backend { return &realBackend{exec: NewExecutor(cfg)} },
	"surrogate": func(cfg JobConfig, _ int) Backend { return &surrogateBackend{exec: NewExecutor(cfg)} },
	"parallel":  func(cfg JobConfig, workers int) Backend { return newParallelBackend(cfg, workers) },
}

// RegisterBackend adds a custom base backend under name. Like the
// scheduling-policy registry, duplicate names panic: backend names key
// scenario files, experiment CSVs and BENCH_compute.json.
func RegisterBackend(name string, f BackendFactory) {
	if name == "" || f == nil {
		panic("core: RegisterBackend with empty name or nil factory")
	}
	if name == "cached" {
		panic("core: \"cached\" is the memoization modifier, not a base backend")
	}
	if _, dup := backendRegistry[name]; dup {
		panic("core: backend " + name + " already registered")
	}
	backendRegistry[name] = f
}

// BackendNames lists the base backends plus the cached modifier forms,
// sorted, for usage text and validation messages.
func BackendNames() []string {
	names := []string{"cached"} // shorthand for "parallel+cached"
	for name := range backendRegistry {
		names = append(names, name, name+"+cached")
	}
	sort.Strings(names)
	return names
}

// parseBackendSpec splits a spec into its base backend name and whether
// the cached modifier wraps it. The grammar is "+"-separated parts: at
// most one registered base name and optionally "cached", in either
// order — so "cached", "parallel+cached" and "cached+parallel" are all
// valid. A spec without a base means "real" when it is empty and
// "parallel" under the memo layer: the misses of one event callback are
// independent, so bare "cached" computes them on every core, and
// "real+cached" asks for the inline memo by name.
func parseBackendSpec(spec string) (base string, cached bool, err error) {
	base = "real"
	if spec == "" {
		return base, false, nil
	}
	baseSet := false
	for _, part := range strings.Split(spec, "+") {
		part = strings.TrimSpace(part)
		switch {
		case part == "cached":
			if cached {
				return "", false, fmt.Errorf("core: backend spec %q repeats cached", spec)
			}
			cached = true
		default:
			if _, ok := backendRegistry[part]; !ok {
				return "", false, fmt.Errorf("core: unknown backend %q in spec %q (want one of %s)",
					part, spec, strings.Join(BackendNames(), ", "))
			}
			if baseSet {
				return "", false, fmt.Errorf("core: backend spec %q names two base backends", spec)
			}
			base, baseSet = part, true
		}
	}
	if cached && !baseSet {
		base = "parallel"
	}
	return base, cached, nil
}

// ValidateBackendSpec reports whether spec names a constructible
// backend; option layers (exp, scenario) call it at parse time so bad
// specs fail before any run starts.
func ValidateBackendSpec(spec string) error {
	_, _, err := parseBackendSpec(spec)
	return err
}

// BackendSpecName canonicalizes a valid spec ("cached" and
// "cached+parallel" → "parallel+cached", "cached+real" → "real+cached",
// "" → "real"); it is what the backend's Name and Stats report, and a
// canonical name parses back to itself. Invalid specs return the input
// unchanged.
func BackendSpecName(spec string) string {
	base, cached, err := parseBackendSpec(spec)
	if err != nil {
		return spec
	}
	if cached {
		return base + "+cached"
	}
	return base
}

// NewBackend instantiates the backend named by spec for one run. Backends
// are stateful (caches, pools) and must never be shared between runs —
// the simulator builds one per Start, which is what keeps sweep workers
// independent.
func NewBackend(spec string, cfg JobConfig, workers int) (Backend, error) {
	base, cached, err := parseBackendSpec(spec)
	if err != nil {
		return nil, err
	}
	b := backendRegistry[base](cfg, workers)
	if cached {
		b = &cachedBackend{inner: b, cells: make(map[[2]int]*cacheCell)}
	}
	return b, nil
}

// lazyFuture computes on first Wait — the "inline in the event loop at
// virtual completion time" behaviour of the historical code path, which
// also means executions whose completion never fires (departed clients)
// never compute.
type lazyFuture struct {
	f      func() ([]float64, ExecStats)
	done   bool
	params []float64
	stats  ExecStats
}

func (l *lazyFuture) Wait() ([]float64, ExecStats) {
	if !l.done {
		l.params, l.stats = l.f()
		l.done, l.f = true, nil
	}
	return l.params, l.stats
}

// inlineStats carries the telemetry shared by the inline (non-pooled)
// backends, including the launched-minus-awaited peak.
type inlineStats struct {
	stats       BackendStats
	outstanding int
}

func (s *inlineStats) launch() {
	s.stats.Launched++
	s.outstanding++
	if s.outstanding > s.stats.MaxInFlight {
		s.stats.MaxInFlight = s.outstanding
	}
}

func (s *inlineStats) await() { s.outstanding-- }

// realBackend is today's path: the full Executor kernel, inline in the
// event loop at virtual completion time.
type realBackend struct {
	exec *Executor
	s    inlineStats
}

func (b *realBackend) Name() string { return "real" }

func (b *realBackend) Launch(t Subtask) Future {
	b.s.launch()
	return &lazyFuture{f: func() ([]float64, ExecStats) {
		b.s.await()
		b.s.stats.Computed++
		return b.exec.Run(t.Params, t.Data, t.Seed)
	}}
}

func (b *realBackend) Retire(int) {}
func (b *realBackend) Stats() BackendStats {
	s := b.s.stats
	s.Backend = b.Name()
	return s
}
func (b *realBackend) Close() {}

// surrogateBackend swaps the kernel for Executor.RunSurrogate.
type surrogateBackend struct {
	exec *Executor
	s    inlineStats
}

func (b *surrogateBackend) Name() string { return "surrogate" }

func (b *surrogateBackend) Launch(t Subtask) Future {
	b.s.launch()
	return &lazyFuture{f: func() ([]float64, ExecStats) {
		b.s.await()
		b.s.stats.Computed++
		return b.exec.RunSurrogate(t.Params, t.Data, t.Seed)
	}}
}

func (b *surrogateBackend) Retire(int) {}
func (b *surrogateBackend) Stats() BackendStats {
	s := b.s.stats
	s.Backend = b.Name()
	return s
}
func (b *surrogateBackend) Close() {}

// parallelBackend feeds launches to a persistent pool of worker
// goroutines over a bounded queue, so the math runs between a subtask's
// virtual start and virtual end while the event loop keeps processing.
// Because each computation is pure and the event loop's Launch/Wait
// order is fixed by virtual time, results are byte-identical at any
// pool size.
//
// Two granularity rules, both learned from the goroutine-per-launch
// version this replaced: (1) workers are started once at construction —
// a launch is one pointer send on a channel, not a goroutine spawn plus
// semaphore dance; (2) parallelism lives in exactly one place — the
// pool holds a tensor.ReserveSerial reservation for its whole lifetime,
// so kernels inside workers never fan out into nested goroutines
// (8 workers × GOMAXPROCS kernel goroutines was the old worst case).
type parallelBackend struct {
	exec    *Executor
	workers int
	queue   chan *poolFuture
	// jobs carries Pool jobs, which workers take before any subtask. It
	// has the queue's depth; vcsim keeps at most two per worker
	// outstanding, so its Go never blocks.
	jobs chan poolJob
	wg   sync.WaitGroup
	// releaseSerial drops the pool's kernel-serialization reservation
	// at Close.
	releaseSerial func()
	// computed is incremented by workers; everything else in s is
	// event-loop-only, so Launched/MaxInFlight stay deterministic.
	computed atomic.Int64
	closed   bool
	s        inlineStats
}

// poolQueueBound sizes the launch queue per worker. Deep enough that an
// epoch batch rarely blocks the event loop, bounded so a pathological
// backlog applies backpressure instead of growing without limit
// (blocking Launch is safe: workers never depend on the event loop).
const poolQueueBound = 8

func newParallelBackend(cfg JobConfig, workers int) *parallelBackend {
	if workers < 1 {
		workers = defaultComputeWorkers()
	}
	b := &parallelBackend{
		exec:          NewExecutor(cfg),
		workers:       workers,
		queue:         make(chan *poolFuture, workers*poolQueueBound),
		jobs:          make(chan poolJob, workers*poolQueueBound),
		releaseSerial: tensor.ReserveSerial(),
	}
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		go b.worker()
	}
	return b
}

// worker takes a queued job before a queued subtask: the event loop
// waits on a job no later than on the subtasks queued ahead of it. Once
// the subtask queue is closed it runs what jobs are left and exits.
func (b *parallelBackend) worker() {
	defer b.wg.Done()
	queue := b.queue
	for {
		select {
		case j := <-b.jobs:
			j.run()
			continue
		default:
		}
		if queue == nil {
			return
		}
		select {
		case j := <-b.jobs:
			j.run()
		case f, ok := <-queue:
			if !ok {
				queue = nil
				continue
			}
			f.params, f.stats = b.exec.Run(f.t.Params, f.t.Data, f.t.Seed)
			f.t = Subtask{} // drop the params/shard references promptly
			b.computed.Add(1)
			close(f.done)
		}
	}
}

// poolJob is one queued Pool job; run closes done once f returns.
type poolJob struct {
	f    func()
	done chan struct{}
}

func (j poolJob) run() {
	j.f()
	close(j.done)
}

// Go implements Pool.
func (b *parallelBackend) Go(job func()) <-chan struct{} {
	j := poolJob{f: job, done: make(chan struct{})}
	b.jobs <- j
	return j.done
}

// Size implements Pool.
func (b *parallelBackend) Size() int { return b.workers }

// poolFuture is one queued launch. The worker's close(done) publishes
// params/stats to the event-loop thread's Wait.
type poolFuture struct {
	b      *parallelBackend
	t      Subtask
	done   chan struct{}
	waited bool
	params []float64
	stats  ExecStats
}

func (f *poolFuture) Wait() ([]float64, ExecStats) {
	if !f.waited {
		<-f.done
		f.waited = true
		f.b.s.await()
	}
	return f.params, f.stats
}

func (b *parallelBackend) Launch(t Subtask) Future {
	b.s.launch()
	f := &poolFuture{b: b, t: t, done: make(chan struct{})}
	b.queue <- f
	return f
}

// LaunchBatch enqueues a whole event callback's subtasks back to back.
func (b *parallelBackend) LaunchBatch(ts []Subtask) []Future {
	futs := make([]Future, len(ts))
	for i, t := range ts {
		futs[i] = b.Launch(t)
	}
	return futs
}

func (b *parallelBackend) Name() string { return "parallel" }
func (b *parallelBackend) Retire(int)   {}

func (b *parallelBackend) Stats() BackendStats {
	s := b.s.stats
	s.Backend = b.Name()
	s.Workers = b.workers
	s.Computed = int(b.computed.Load())
	return s
}

// Close stops the pool: the queue is closed, workers drain what is
// already enqueued, jobs included (futures nobody awaited, e.g. for
// departed clients, still compute — the pool is work-conserving like its
// predecessor) and exit, and the kernel-serialization reservation is
// released.
func (b *parallelBackend) Close() {
	if b.closed {
		return
	}
	b.closed = true
	close(b.queue)
	b.wg.Wait()
	b.releaseSerial()
}

// cacheCell memoizes one (epoch, shard) computation. Every launch of the
// same key shares the cell, so replicated and reissued copies resolve to
// a single underlying execution, whichever copy awaits first.
type cacheCell struct {
	fut    Future
	done   bool
	params []float64
	stats  ExecStats
}

func (c *cacheCell) Wait() ([]float64, ExecStats) {
	if !c.done {
		c.params, c.stats = c.fut.Wait()
		c.done, c.fut = true, nil
	}
	return c.params, c.stats
}

// cachedBackend memoizes any inner backend per (epoch, shard). Soundness
// is the purity argument: for a fixed run, (epoch, shard) determines
// (params snapshot, shard data, seed), so every copy the scheduler
// issues is a byte-identical recomputation — computing once changes
// nothing but wall clock.
type cachedBackend struct {
	inner        Backend
	cells        map[[2]int]*cacheCell
	hits, misses int
}

func (b *cachedBackend) Name() string { return b.inner.Name() + "+cached" }

func (b *cachedBackend) Launch(t Subtask) Future {
	key := [2]int{t.Epoch, t.Shard}
	if cell, ok := b.cells[key]; ok {
		b.hits++
		return cell
	}
	b.misses++
	cell := &cacheCell{fut: b.inner.Launch(t)}
	b.cells[key] = cell
	return cell
}

// LaunchBatch resolves cache hits without touching the inner backend
// and forwards the misses as one smaller batch, preserving input order
// in the returned futures. Counter updates happen in input order, so
// stats match the sequential Launch path exactly.
func (b *cachedBackend) LaunchBatch(ts []Subtask) []Future {
	futs := make([]Future, len(ts))
	var misses []Subtask
	var missIdx []int
	for i, t := range ts {
		key := [2]int{t.Epoch, t.Shard}
		if cell, ok := b.cells[key]; ok {
			b.hits++
			futs[i] = cell
			continue
		}
		b.misses++
		cell := &cacheCell{}
		b.cells[key] = cell
		futs[i] = cell
		misses = append(misses, t)
		missIdx = append(missIdx, i)
	}
	if len(misses) == 0 {
		return futs
	}
	inner := LaunchBatch(b.inner, misses)
	for j, i := range missIdx {
		futs[i].(*cacheCell).fut = inner[j]
	}
	return futs
}

// Retire evicts cells below epoch. In-flight futures keep their cell
// alive through the future they were handed, so eviction never races a
// pending Wait.
func (b *cachedBackend) Retire(epoch int) {
	for key := range b.cells {
		if key[0] < epoch {
			delete(b.cells, key)
		}
	}
	b.inner.Retire(epoch)
}

func (b *cachedBackend) Stats() BackendStats {
	s := b.inner.Stats()
	s.Backend = b.Name()
	// The inner backend only saw the misses; the cached layer's launch
	// count is every subtask handed to it.
	s.Launched = b.hits + b.misses
	s.CacheHits = b.hits
	s.CacheMisses = b.misses
	return s
}

func (b *cachedBackend) Close() { b.inner.Close() }
