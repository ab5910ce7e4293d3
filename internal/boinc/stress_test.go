package boinc

import (
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// invariantSink watches the lifecycle event stream for violations of
// the scheduler's cross-shard invariants. Events for one workunit are
// serialized (a workunit lives entirely on one shard, whose lock is
// held while emitting), so per-WU ordering is well-defined; the sink's
// own mutex only guards its maps across workunits.
type invariantSink struct {
	mu sync.Mutex
	// liveCopies / liveByClient track outstanding results per workunit
	// and per (workunit, client).
	liveCopies   map[int64]int
	liveByClient map[int64]map[string]int
	replication  map[int64]int
	done, failed map[int64]bool
	violations   []string
}

func newInvariantSink() *invariantSink {
	return &invariantSink{
		liveCopies:   make(map[int64]int),
		liveByClient: make(map[int64]map[string]int),
		replication:  make(map[int64]int),
		done:         make(map[int64]bool),
		failed:       make(map[int64]bool),
	}
}

func (s *invariantSink) violatef(format string, args ...any) {
	if len(s.violations) < 20 {
		s.violations = append(s.violations, fmt.Sprintf(format, args...))
	}
}

func (s *invariantSink) OnSchedEvent(e SchedEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Kind {
	case EvAssigned:
		s.liveCopies[e.WUID]++
		if cap := s.replication[e.WUID]; cap > 0 && s.liveCopies[e.WUID] > cap {
			s.violatef("wu %d: %d live copies exceed replication %d", e.WUID, s.liveCopies[e.WUID], cap)
		}
		by := s.liveByClient[e.WUID]
		if by == nil {
			by = make(map[string]int)
			s.liveByClient[e.WUID] = by
		}
		by[e.Client]++
		if s.replication[e.WUID] > 1 && by[e.Client] > 1 {
			s.violatef("wu %d: client %s holds %d concurrent copies (one-result-per-user)", e.WUID, e.Client, by[e.Client])
		}
		if s.done[e.WUID] {
			s.violatef("wu %d: assigned after quorum (done)", e.WUID)
		}
	case EvValid, EvInvalid, EvTimeout:
		s.liveCopies[e.WUID]--
		if s.liveCopies[e.WUID] < 0 {
			s.violatef("wu %d: completion without a matching assignment", e.WUID)
		}
		if by := s.liveByClient[e.WUID]; by != nil && e.Client != "" {
			by[e.Client]--
		}
	case EvReissued:
		if s.done[e.WUID] {
			s.violatef("wu %d: reissued after quorum (done) — quorum regressed", e.WUID)
		}
		if s.failed[e.WUID] {
			s.violatef("wu %d: reissued after terminal failure — error budget regressed", e.WUID)
		}
	case EvWUDone:
		if s.done[e.WUID] {
			s.violatef("wu %d: EvWUDone fired twice", e.WUID)
		}
		if s.failed[e.WUID] {
			s.violatef("wu %d: done after terminal failure", e.WUID)
		}
		s.done[e.WUID] = true
	case EvWUFailed:
		if s.failed[e.WUID] {
			s.violatef("wu %d: EvWUFailed fired twice", e.WUID)
		}
		if s.done[e.WUID] {
			s.violatef("wu %d: failed after quorum (done)", e.WUID)
		}
		s.failed[e.WUID] = true
	}
}

// check reports every recorded violation and any workunit that still
// has live copies; call it once the run has drained.
func (s *invariantSink) check(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.violations {
		t.Errorf("invariant violated: %s", v)
	}
	for id, n := range s.liveCopies {
		if n != 0 {
			t.Errorf("wu %d: %d live copies at end of run", id, n)
		}
	}
}

// stressOptions parameterizes one conformance run.
type stressOptions struct {
	policy      Policy
	shards      int
	workers     int
	wus         int
	replication int
	// reconfigure, when non-nil, runs concurrently with the load (the
	// hot-reconfig torn-read regression: setters must land atomically
	// per shard).
	reconfigure func(ss *ShardedScheduler, stop <-chan struct{})
}

// runSchedulerStress drives a ShardedScheduler from opts.workers
// concurrent goroutines — request, complete (valid, invalid or dropped)
// — until every workunit is terminal, checking the invariant stream the
// whole way. Time is a shared atomic tick so deadline sweeps fire
// across goroutines; dropped results are recovered by expiry.
func runSchedulerStress(t *testing.T, opts stressOptions) {
	t.Helper()
	cfg := DefaultSchedulerConfig()
	cfg.DefaultTimeout = 0.2 // ticks advance 1ms/op: drops expire fast
	cfg.DefaultMaxErrors = 1 << 20
	ss := NewShardedScheduler(cfg, opts.shards)
	if opts.policy != nil {
		ss.Each(func(s *Scheduler) { s.SetPolicy(opts.policy) })
	}
	sink := newInvariantSink()
	ss.AddSink(sink)
	repl := opts.replication
	if repl < 1 {
		repl = 1
	}
	for i := 0; i < opts.wus; i++ {
		id := ss.AddWorkunit(Workunit{
			Name:        fmt.Sprintf("stress-%d", i),
			InputFiles:  []string{fmt.Sprintf("shard-%d", i%16)},
			Replication: repl,
			Quorum:      repl,
		})
		sink.mu.Lock()
		sink.replication[id] = repl
		sink.mu.Unlock()
	}

	var tick atomic.Int64
	now := func() float64 { return float64(tick.Add(1)) / 1000 }
	stop := make(chan struct{})
	if opts.reconfigure != nil {
		go opts.reconfigure(ss, stop)
	}
	var wg sync.WaitGroup
	for w := 0; w < opts.workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			client := fmt.Sprintf("worker-%02d", id)
			idle := 0
			for idle < 50 {
				asns := ss.RequestWork(client, now(), 1+rng.Intn(3), []string{fmt.Sprintf("shard-%d", rng.Intn(16))})
				if len(asns) == 0 {
					if ss.Done() {
						return
					}
					idle++
					// Nothing assignable right now (all in flight
					// elsewhere): advance time so expiry can recover
					// dropped results.
					tick.Add(50)
					continue
				}
				idle = 0
				for _, asn := range asns {
					switch r := rng.Float64(); {
					case r < 0.05:
						// Drop the result: the deadline sweep must
						// recover it.
					case r < 0.20:
						ss.ForResult(asn.ResultID, func(s *Scheduler) {
							s.CompleteResult(asn.ResultID, false, now())
						})
					default:
						ss.ForResult(asn.ResultID, func(s *Scheduler) {
							s.CompleteResult(asn.ResultID, true, now())
						})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)

	// Drain stragglers: expire anything dropped in the last rounds and
	// confirm the run reached a terminal fixed point.
	for i := 0; i < 1000 && !ss.Done(); i++ {
		tick.Add(1000)
		ss.ExpireTimeouts(now())
		for w := 0; w < 4; w++ {
			client := fmt.Sprintf("drain-%d", w)
			for _, asn := range ss.RequestWork(client, now(), 8, nil) {
				ss.ForResult(asn.ResultID, func(s *Scheduler) {
					s.CompleteResult(asn.ResultID, true, now())
				})
			}
		}
	}
	if !ss.Done() {
		st := ss.Stats()
		t.Fatalf("scheduler never drained: %+v", st)
	}
	sink.check(t)
	st := ss.Stats()
	if st.InFlight != 0 || st.Pending != 0 {
		t.Errorf("terminal stats show open work: %+v", st)
	}
}

// TestSchedulerConformanceUnderLoad drives every registered policy
// through concurrent RequestWork/Complete/Expire traffic from 64
// goroutines against an 8-shard scheduler, asserting the invariants
// that sharding must not break: no concurrent double-assignment of a
// replicated workunit to one client, live copies capped at the
// replication factor, terminal states never regress, and the run
// drains to a quiescent fixed point. Run with -race in CI.
func TestSchedulerConformanceUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped in -short")
	}
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := NewPolicy(name)
			if err != nil {
				t.Fatalf("NewPolicy(%s): %v", name, err)
			}
			runSchedulerStress(t, stressOptions{
				policy:      p,
				shards:      8,
				workers:     64,
				wus:         400,
				replication: 2,
			})
		})
	}
}

// TestSchedulerHotReconfigUnderLoad is the torn-read regression: while
// 64 goroutines hammer the scheduler, another goroutine continually
// hot-swaps the policy and retunes the timeout and reliability floor
// through the Each fan-out. Every setter must land atomically per shard
// — the -race detector catches any unlocked access, and the invariant
// sink catches any scheduling corruption.
func TestSchedulerHotReconfigUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("stress suite skipped in -short")
	}
	names := PolicyNames()
	runSchedulerStress(t, stressOptions{
		shards:  8,
		workers: 64,
		wus:     400,
		reconfigure: func(ss *ShardedScheduler, stop <-chan struct{}) {
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p, err := NewPolicy(names[i%len(names)])
				if err != nil {
					panic(err)
				}
				ss.Each(func(s *Scheduler) { s.SetPolicy(p) })
				ss.Each(func(s *Scheduler) { s.SetDefaultTimeout(0.2 + float64(i%5)*0.05) })
				ss.Each(func(s *Scheduler) { s.SetReliabilityFloor(float64(i%10) / 10) })
			}
		},
	})
}

// TestServerDrainsUnderManyClients is the many-connection path end to
// end: 128 HTTP clients drain a 2 000-workunit backlog from an 8-shard
// server behind an admission gate sized so that nothing sheds. Every
// workunit must complete exactly once, no request may be shed, the
// lifecycle invariants must hold and every client must end with nothing
// in flight.
func TestServerDrainsUnderManyClients(t *testing.T) {
	if testing.Short() {
		t.Skip("128-client live-HTTP drain skipped in -short")
	}
	const clients, wus = 128, 2000
	cfg := DefaultSchedulerConfig()
	cfg.DefaultTimeout = 3600 // wall seconds; nothing may expire mid-drain
	cfg.Shards = 8
	srv := NewServer(cfg, nil, nil)
	srv.EnableAdmission(AdmissionConfig{MaxConcurrent: 256, MaxQueue: 512, RetryAfter: 50 * time.Millisecond})
	sink := newInvariantSink()
	srv.Scheduler(func(s *Scheduler) { s.AddSink(sink) })
	for i := 0; i < wus; i++ {
		id := srv.AddWorkunit(Workunit{
			Name:       fmt.Sprintf("drain-%d", i),
			InputFiles: []string{"model", fmt.Sprintf("shard-%d", i%64)},
		})
		sink.mu.Lock()
		sink.replication[id] = 1
		sink.mu.Unlock()
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl := NewClient(fmt.Sprintf("load-%03d", id), ts.URL, 1, nil)
			for {
				asns, err := cl.RequestWork(1)
				var ra *RetryAfterError
				if errors.As(err, &ra) {
					time.Sleep(ra.After)
					continue
				}
				if err != nil {
					t.Errorf("%s: request: %v", cl.ID, err)
					return
				}
				if len(asns) == 0 {
					return
				}
				if err := cl.Upload(asns[0].ResultID, []byte("ok"), nil); err != nil {
					t.Errorf("%s: upload: %v", cl.ID, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	if !srv.Done() {
		t.Errorf("server not done after every client saw an empty reply: %+v", srv.SchedStats())
	}
	if st := srv.SchedStats(); st.Completions != wus {
		t.Errorf("completions = %d, want %d", st.Completions, wus)
	}
	if n := srv.ShedCount(); n != 0 {
		t.Errorf("ShedCount = %d, want 0 (gate sized above the fleet)", n)
	}
	sink.check(t)
	for _, cs := range srv.ClientSummaries() {
		if cs.InFlight != 0 {
			t.Errorf("client %s ends with %d results in flight", cs.ID, cs.InFlight)
		}
	}
}
