package boinc

import (
	"cmp"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
)

// ShardedScheduler partitions scheduler state across N independently
// locked shards so work requests, result uploads and validations that
// touch different shards never contend on one mutex (the heavy-traffic
// path, DESIGN.md §14). Each shard is a complete *Scheduler:
//
//   - Workunits route to a shard by a stable hash stripe of (app, name),
//     so a workunit and every replica of it live entirely on one shard.
//     That placement is what keeps the cross-shard invariants local:
//     quorum counting, the error budget and the one-result-per-user rule
//     are all per-workunit state, enforced by the owning shard under its
//     own lock exactly as the single scheduler enforced them.
//   - Result IDs are striped residue classes (shard i of n issues IDs
//     ≡ i mod n, via Scheduler.setStripe), so an upload routes back to
//     its owning shard from the result ID alone — no global index.
//   - RequestWork gathers a coalesced reply: it walks the shards starting
//     at the client's home stripe, locking one shard at a time, and
//     batches per-shard picks into one assignment list. Per-client
//     reliability and sticky-cache state are therefore tracked per shard
//     (a shard only learns about clients it has served).
//   - Cross-shard per-client aggregates (in-flight totals, distinct
//     clients) are merged from the per-shard client tables on demand
//     (ClientSummaries, Stats), one shard lock at a time.
//
// With one shard the behaviour — IDs, assignment order, every observable
// — is identical to a bare Scheduler behind a single mutex.
type ShardedScheduler struct {
	shards []*schedShard
	agg    *depthAgg
}

// schedShard is one lock-striped scheduler partition.
type schedShard struct {
	mu sync.Mutex
	s  *Scheduler
}

// NewShardedScheduler builds an n-shard scheduler (n <= 1 means one
// shard) where every shard runs the given mechanics config and the
// default paper policy.
func NewShardedScheduler(cfg SchedulerConfig, n int) *ShardedScheduler {
	if n < 1 {
		n = 1
	}
	ss := &ShardedScheduler{
		shards: make([]*schedShard, n),
		agg:    newDepthAgg(n),
	}
	for i := range ss.shards {
		sc := NewScheduler(cfg)
		sc.setStripe(int64(i), int64(n))
		sc.SetSink(&aggSink{shard: i, agg: ss.agg})
		ss.shards[i] = &schedShard{s: sc}
	}
	return ss
}

// stripeHash is the stable workunit placement hash.
func stripeHash(app, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(app))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return h.Sum64()
}

// shardForWU returns the shard owning a workunit by its (app, name)
// stripe.
func (ss *ShardedScheduler) shardForWU(app, name string) *schedShard {
	return ss.shards[stripeHash(app, name)%uint64(len(ss.shards))]
}

// shardForResult returns the shard that issued a result ID (IDs are
// striped residue classes, so this is id mod n).
func (ss *ShardedScheduler) shardForResult(id int64) *schedShard {
	n := int64(len(ss.shards))
	return ss.shards[((id%n)+n)%n]
}

// homeShard is where a client's work-request walk starts; spreading
// start points by client ID keeps a synchronized fleet from convoying on
// shard 0.
func (ss *ShardedScheduler) homeShard(clientID string) int {
	h := fnv.New64a()
	h.Write([]byte(clientID))
	return int(h.Sum64() % uint64(len(ss.shards)))
}

// AddWorkunit registers a workunit on its owning shard and returns the
// striped ID.
func (ss *ShardedScheduler) AddWorkunit(wu Workunit) int64 {
	sh := ss.shardForWU(wu.App, wu.Name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.s.AddWorkunit(wu)
}

// RequestWork assembles up to max assignments for a client, gathering
// from the shards round-robin starting at the client's home stripe. Each
// visited shard is locked independently and, under the same acquisition,
// swept for expired deadlines and updated with the client's declared
// sticky cache — the per-shard equivalent of what the single-mutex
// server did per request.
func (ss *ShardedScheduler) RequestWork(clientID string, now float64, max int, cached []string) []Assignment {
	if max <= 0 {
		return nil
	}
	n := len(ss.shards)
	start := ss.homeShard(clientID)
	var out []Assignment
	for k := 0; k < n; k++ {
		sh := ss.shards[(start+k)%n]
		sh.mu.Lock()
		sh.s.ExpireTimeouts(now)
		for _, f := range cached {
			sh.s.NoteCached(clientID, f)
		}
		asns := sh.s.RequestWork(clientID, now, max-len(out))
		sh.mu.Unlock()
		out = append(out, asns...)
		if len(out) >= max {
			break
		}
	}
	return out
}

// ForResult runs f on the shard that owns the given result ID, under
// that shard's lock. The upload path uses it to look up and complete a
// result (in one acquisition when there is nothing to validate between
// the two).
func (ss *ShardedScheduler) ForResult(resultID int64, f func(*Scheduler)) {
	sh := ss.shardForResult(resultID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f(sh.s)
}

// Each runs f on every shard in order, each under its own lock. It is
// the mutation fan-out for hot reconfiguration (policy swap, timeout,
// reliability floor, cordon, drop): every setter lands atomically per
// shard — a concurrent RequestWork sees either the old or the new value,
// never a torn intermediate. Callers that *read* state through Each see
// only the last shard's value; use the aggregate queries instead.
func (ss *ShardedScheduler) Each(f func(*Scheduler)) {
	for _, sh := range ss.shards {
		sh.mu.Lock()
		f(sh.s)
		sh.mu.Unlock()
	}
}

// ExpireTimeouts sweeps every shard for overdue results.
func (ss *ShardedScheduler) ExpireTimeouts(now float64) {
	for _, sh := range ss.shards {
		sh.mu.Lock()
		sh.s.ExpireTimeouts(now)
		sh.mu.Unlock()
	}
}

// AddSink attaches a lifecycle sink to every shard. Events from
// different shards are delivered concurrently (each under its shard's
// lock), so sinks must be safe for concurrent use; the event's Pending
// and InFlight depths are rewritten to fleet-wide totals before
// delivery, so depth gauges aggregate correctly across shards.
func (ss *ShardedScheduler) AddSink(sink SchedSink) {
	for i, sh := range ss.shards {
		sh.mu.Lock()
		sh.s.AddSink(&aggSink{shard: i, agg: ss.agg, next: sink})
		sh.mu.Unlock()
	}
}

// Stats sums the per-shard counter snapshots. Clients counts distinct
// IDs across the per-shard client tables (the same population
// ClientSummaries lists): summing per-shard registrations would
// double-count clients served by several shards.
func (ss *ShardedScheduler) Stats() SchedStats {
	var total SchedStats
	total.Done = true
	seen := make(map[string]struct{})
	for _, sh := range ss.shards {
		sh.mu.Lock()
		st := sh.s.Stats()
		for id := range sh.s.clients {
			seen[id] = struct{}{}
		}
		sh.mu.Unlock()
		total.Issued += st.Issued
		total.Reissued += st.Reissued
		total.Timeouts += st.Timeouts
		total.Failures += st.Failures
		total.Completions += st.Completions
		total.Invalid += st.Invalid
		total.QuorumRetries += st.QuorumRetries
		total.Pending += st.Pending
		total.InFlight += st.InFlight
		total.Done = total.Done && st.Done
	}
	total.Clients = len(seen)
	return total
}

// Done reports whether every workunit on every shard reached a terminal
// state.
func (ss *ShardedScheduler) Done() bool {
	for _, sh := range ss.shards {
		sh.mu.Lock()
		done := sh.s.Done()
		sh.mu.Unlock()
		if !done {
			return false
		}
	}
	return true
}

// PendingCount sums the queued (unassigned) copies across shards.
func (ss *ShardedScheduler) PendingCount() int {
	n := 0
	for _, sh := range ss.shards {
		sh.mu.Lock()
		n += sh.s.PendingCount()
		sh.mu.Unlock()
	}
	return n
}

// InFlight sums the outstanding results across shards.
func (ss *ShardedScheduler) InFlight() int {
	n := 0
	for _, sh := range ss.shards {
		sh.mu.Lock()
		n += sh.s.InFlight()
		sh.mu.Unlock()
	}
	return n
}

// AssignmentMix sums the per-policy assignment counts across shards.
func (ss *ShardedScheduler) AssignmentMix() map[string]int {
	mix := make(map[string]int)
	for _, sh := range ss.shards {
		sh.mu.Lock()
		for k, v := range sh.s.AssignmentMix() {
			mix[k] += v
		}
		sh.mu.Unlock()
	}
	return mix
}

// ClientSummaries merges the per-shard client views into one fleet-wide
// listing, sorted by ID: in-flight counts and cached-file counts sum, a
// client is gone only when every shard that knows it agrees, cordoned if
// any shard says so (cordons fan out through Each, so shards normally
// agree), and reliability is the minimum across shards — the
// conservative summary for an operator deciding whether to trust a host.
func (ss *ShardedScheduler) ClientSummaries() []ClientSummary {
	merged := make(map[string]*ClientSummary)
	var order []string
	for _, sh := range ss.shards {
		sh.mu.Lock()
		sums := sh.s.ClientSummaries()
		sh.mu.Unlock()
		for _, s := range sums {
			m, ok := merged[s.ID]
			if !ok {
				c := s
				merged[s.ID] = &c
				order = append(order, s.ID)
				continue
			}
			m.InFlight += s.InFlight
			m.CachedFiles += s.CachedFiles
			m.Gone = m.Gone && s.Gone
			m.Cordoned = m.Cordoned || s.Cordoned
			if s.Reliability < m.Reliability {
				m.Reliability = s.Reliability
			}
		}
	}
	out := make([]ClientSummary, 0, len(order))
	for _, id := range order {
		out = append(out, *merged[id])
	}
	slices.SortFunc(out, func(a, b ClientSummary) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// depthAgg tracks each shard's last-reported queue depths so events can
// carry fleet-wide totals. Slots are atomics: shard i only writes slot
// i (under its own lock), while any shard may sum all slots.
type depthAgg struct {
	pending  []atomic.Int64
	inflight []atomic.Int64
}

func newDepthAgg(n int) *depthAgg {
	return &depthAgg{pending: make([]atomic.Int64, n), inflight: make([]atomic.Int64, n)}
}

// aggSink is the innermost per-shard sink: it records the shard's queue
// depths and rewrites the event's Pending/InFlight to cross-shard totals
// before forwarding, so metric gauges (and any other attached sink) see
// the fleet-wide depth instead of one shard's slice of it. The base sink
// installed at construction has no next: it only keeps the shard's slot
// current, so a sink attached later starts from true totals.
type aggSink struct {
	shard int
	agg   *depthAgg
	next  SchedSink
}

// OnSchedEvent implements SchedSink.
func (a *aggSink) OnSchedEvent(e SchedEvent) {
	a.agg.pending[a.shard].Store(int64(e.Pending))
	a.agg.inflight[a.shard].Store(int64(e.InFlight))
	if a.next == nil {
		return
	}
	var p, f int64
	for i := range a.agg.pending {
		p += a.agg.pending[i].Load()
		f += a.agg.inflight[i].Load()
	}
	e.Pending, e.InFlight = int(p), int(f)
	a.next.OnSchedEvent(e)
}
