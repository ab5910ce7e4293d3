package boinc

import (
	"fmt"
	"slices"
	"sort"
)

// SchedulerConfig tunes the scheduling mechanics. The assignment
// preference itself is a Policy (see policy.go); the fields here are
// invariants the scheduler enforces around whatever the policy picks.
type SchedulerConfig struct {
	// DefaultTimeout is the result deadline in seconds from issue: every
	// result, a reissue included, is due DefaultTimeout after it is sent
	// ("reissues a result when its timeout expires", §III-B).
	DefaultTimeout float64
	// DefaultMaxErrors is the per-workunit error budget.
	DefaultMaxErrors int
	// ReliabilityFloor gates retried workunits: a workunit that has
	// already timed out or failed once is only given to clients whose
	// reliability score is at least this value, unless no such client is
	// asking ("the scheduler can track how reliably clients return results
	// and assign subtasks to more reliable clients", §III-B).
	ReliabilityFloor float64
	// StickyAffinity biases assignment toward clients that already cache a
	// workunit's input files (the BOINC sticky-file feature, §III-B).
	StickyAffinity bool
	// Seed is exposed to policies through PolicyView.Seed so seeded
	// stochastic policies replay deterministically with the run.
	Seed int64
	// Shards stripes the live server's scheduler state across this many
	// independently locked shards (see ShardedScheduler); 0 or 1 keeps
	// the single-shard behaviour, and a bare Scheduler (the simulator's
	// engine) ignores the field entirely.
	Shards int
}

// DefaultSchedulerConfig mirrors the experiments: 5-minute timeout,
// 8-error budget, reliability gating and sticky files on.
func DefaultSchedulerConfig() SchedulerConfig {
	return SchedulerConfig{
		DefaultTimeout:   300,
		DefaultMaxErrors: 8,
		ReliabilityFloor: 0.5,
		StickyAffinity:   true,
	}
}

// clientState is the scheduler's view of one client.
type clientState struct {
	id          string
	reliability float64
	cached      map[string]bool
	inFlight    int
	// gone marks a client that left the project (volunteer churn). Gone
	// clients no longer count as reliable-and-available, so retried
	// workunits are not reserved for hosts that will never ask again.
	gone bool
	// cordoned stops new assignments to the client without touching its
	// in-flight work (the ops plane's reversible quarantine: the host
	// stays attached and keeps uploading, it just gets nothing new).
	cordoned bool
}

// Assignment is work handed to a client.
type Assignment struct {
	ResultID   int64
	WUID       int64
	Name       string
	App        string
	InputFiles []string
	// Blobs maps input file names to blob digests (see
	// Workunit.BlobFiles); empty when the data plane is off.
	Blobs    map[string]string `json:"Blobs,omitempty"`
	Payload  []byte
	Deadline float64
}

// Scheduler tracks workunits and results and implements the BOINC
// scheduling mechanics; the assignment preference is delegated to a
// pluggable Policy. It is not goroutine-safe; the HTTP server serializes
// access and the simulator is single-threaded by construction.
type Scheduler struct {
	cfg    SchedulerConfig
	policy Policy

	// idOffset/idStep stride the workunit and result ID spaces so a
	// striped deployment (ShardedScheduler) can give each shard a
	// disjoint residue class: shard i of n allocates IDs ≡ i (mod n),
	// which is what lets uploads route back to the owning shard from the
	// result ID alone. A standalone scheduler uses offset 0, step 1 and
	// produces the historical 1,2,3,… sequence unchanged.
	idOffset, idStep int64

	nextWU, nextRes int64
	wus             map[int64]*Workunit
	results         map[int64]*Result
	clients         map[string]*clientState

	// q holds the queued copies awaiting (re)issue (see queue.go); depth
	// is PendingCount, the sum of every workunit's queued count.
	q     *pendq
	depth int
	// open counts workunits that have not reached a terminal state.
	open int
	// deadlines is a min-heap on (deadline, result ID) of issued results.
	// Results that complete stay in it until they surface or until dead
	// entries outnumber the outstanding ones (lazy deletion).
	deadlines []*Result
	// requests numbers RequestWork calls; scanned counts the queue
	// entries those calls examined (the complexity tests read it).
	requests, scanned int64
	// candBuf, mergeBuf, pickBuf and eventBuf are per-request scratch
	// for the candidate view, the bucket merge, the indexed picks and
	// the deferred event batch; all are consumed before RequestWork
	// returns, so the hot path allocates nothing transient.
	candBuf  []Candidate
	mergeBuf []cursor
	pickBuf  []int64
	eventBuf []SchedEvent

	// sink receives lifecycle events (nil = no observation). Every event
	// is derived from state already at hand plus the caller-supplied
	// clock, so attaching a sink cannot perturb a simulation.
	sink SchedSink
	// lastNow is the most recent time a clocked entry point saw; it
	// stamps events from entry points without a time parameter
	// (AddWorkunit) and the queue times of reissues.
	lastNow float64
	// inflight counts outstanding results incrementally so queue-depth
	// reporting is O(1) instead of a scan over every result ever issued.
	inflight int

	// Counters for reports and tests. Invalid counts results rejected by
	// validation (or reported failed by the client); QuorumRetries counts
	// copies re-enqueued because an earlier result failed, timed out, or
	// a replica had to be replaced to still reach quorum — together the
	// scheduler-side cost of adversarial and flaky hosts.
	Issued, Reissued, Timeouts, Failures, Completions int
	Invalid, QuorumRetries                            int
	// assignMix counts assignments grouped by the policy that made them,
	// so runs with mid-flight policy swaps can report which policy issued
	// what share of the work (the fidelity report's assignment mix).
	assignMix map[string]int
}

// NewScheduler creates a scheduler with the given mechanics config and
// the default paper policy.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 300
	}
	if cfg.DefaultMaxErrors <= 0 {
		cfg.DefaultMaxErrors = 8
	}
	return &Scheduler{
		cfg:       cfg,
		idStep:    1,
		policy:    paperPolicy(),
		wus:       make(map[int64]*Workunit),
		results:   make(map[int64]*Result),
		clients:   make(map[string]*clientState),
		q:         newPendq(),
		assignMix: make(map[string]int),
	}
}

// setStripe switches the scheduler onto the (offset, step) ID residue
// class: subsequent workunit and result IDs are offset+step, offset+2·step,
// …, all ≡ offset (mod step). Must be called before any IDs are issued;
// ShardedScheduler uses it at construction.
func (s *Scheduler) setStripe(offset, step int64) {
	if step < 1 {
		step = 1
	}
	s.idOffset, s.idStep = offset, step
	s.nextWU, s.nextRes = offset, offset
}

// SetSink installs the lifecycle event sink (nil disables observation).
func (s *Scheduler) SetSink(sink SchedSink) { s.sink = sink }

// AddSink composes an additional sink with whatever is installed.
func (s *Scheduler) AddSink(sink SchedSink) { s.sink = appendSink(s.sink, sink) }

// observe emits one lifecycle event, stamping the queue depths.
func (s *Scheduler) observe(e SchedEvent) {
	if s.sink == nil {
		return
	}
	e.Pending = s.depth
	e.InFlight = s.inflight
	s.sink.OnSchedEvent(e)
}

// AssignmentMix returns a copy of the per-policy assignment counts.
func (s *Scheduler) AssignmentMix() map[string]int {
	mix := make(map[string]int, len(s.assignMix))
	for k, v := range s.assignMix {
		mix[k] = v
	}
	return mix
}

// SetPolicy hot-swaps the assignment policy; nil restores the default
// paper policy. Outstanding results are unaffected — only future
// RequestWork calls decide differently.
func (s *Scheduler) SetPolicy(p Policy) {
	if p == nil {
		p = paperPolicy()
	}
	s.policy = p
}

// Policy returns the active assignment policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// SetDefaultTimeout hot-changes the result deadline: every result
// issued from now on, a reissue included, uses it, while results already
// sent keep the deadline they were sent with, like a real BOINC project
// reconfiguration. Non-positive values are ignored.
func (s *Scheduler) SetDefaultTimeout(seconds float64) {
	if seconds > 0 {
		s.cfg.DefaultTimeout = seconds
	}
}

// SetReliabilityFloor hot-changes the reliability gate for retried
// workunits. Values outside [0,1] are clamped.
func (s *Scheduler) SetReliabilityFloor(floor float64) {
	if floor < 0 {
		floor = 0
	}
	if floor > 1 {
		floor = 1
	}
	s.cfg.ReliabilityFloor = floor
}

// Config returns the scheduler's current policy (hot changes included).
func (s *Scheduler) Config() SchedulerConfig { return s.cfg }

// AddWorkunit registers a new workunit and queues it for assignment. It
// returns the assigned ID.
func (s *Scheduler) AddWorkunit(wu Workunit) int64 {
	s.nextWU += s.idStep
	wu.ID = s.nextWU
	if wu.MaxErrors <= 0 {
		wu.MaxErrors = s.cfg.DefaultMaxErrors
	}
	if wu.Quorum <= 0 {
		wu.Quorum = 1
	}
	if wu.Replication < wu.Quorum {
		wu.Replication = wu.Quorum
	}
	wu.status = WUPending
	w := &wu
	// Stamped with the last clocked entry point's time: AddWorkunit has
	// no clock parameter of its own, and the work generator runs inside
	// the same scheduling turn in both engines.
	w.queuedAt = s.lastNow
	w.qhead = -1
	w.filesHash = hashFiles(w.InputFiles)
	s.wus[w.ID] = w
	s.open++
	for i := 0; i < w.Replication; i++ {
		s.enqueue(w)
	}
	s.observe(SchedEvent{Kind: EvCreated, T: s.lastNow, WUID: w.ID, WUName: w.Name})
	return w.ID
}

// enqueue adds one pending copy of a workunit. A copy added to a failed
// workunit (a late valid result short of quorum asks for one) can never
// issue, so it is counted but not queued.
func (s *Scheduler) enqueue(wu *Workunit) {
	wu.queued++
	s.depth++
	if !wu.terminal() {
		s.q.push(wu)
	}
}

// retire moves a workunit to a terminal status and releases its index
// state: queued copies leave the queue and the one-result-per-user set
// is dropped. Done also uncounts the copies.
func (s *Scheduler) retire(wu *Workunit, status WorkunitStatus) {
	if !wu.terminal() {
		s.open--
	}
	wu.status = status
	wu.assignedTo, wu.rejectedBy = nil, nil
	s.q.dropAll(wu)
	s.q.compact()
	if status == WUDone {
		s.depth -= wu.queued
		wu.queued = 0
	}
}

// Workunit returns the tracked workunit by ID, or nil.
func (s *Scheduler) Workunit(id int64) *Workunit { return s.wus[id] }

// Result returns the tracked result by ID, or nil.
func (s *Scheduler) Result(id int64) *Result { return s.results[id] }

// client returns (creating if needed) the state of a client. Only
// operations a client itself initiates (requesting work, caching files)
// may create state; read-only queries go through peek.
func (s *Scheduler) client(id string) *clientState {
	c, ok := s.clients[id]
	if !ok {
		c = &clientState{id: id, reliability: 1, cached: make(map[string]bool)}
		s.clients[id] = c
	}
	return c
}

// peek returns the state of a known client, or nil. Unlike client it
// never registers anything: a lookup must not grow the client table.
func (s *Scheduler) peek(id string) *clientState { return s.clients[id] }

// Reliability returns the reliability score of a client (1.0 for unknown
// clients). It is a pure query: asking about a client the scheduler has
// never seen does not register it.
func (s *Scheduler) Reliability(clientID string) float64 {
	if c := s.peek(clientID); c != nil {
		return c.reliability
	}
	return 1
}

// NoteCached records that a client holds a sticky file locally.
func (s *Scheduler) NoteCached(clientID, file string) {
	s.client(clientID).cached[file] = true
}

// cacheScore counts how many of the input files the client has.
func cacheScore(c *clientState, files []string) int {
	n := 0
	for _, f := range files {
		if c.cached[f] {
			n++
		}
	}
	return n
}

// retryGate resolves "is any reliable client present" at most once per
// request: hasReliableClient is O(clients).
type retryGate struct{ known, any bool }

// admissible reports whether the client may receive the workunit whose
// first queued copy is being examined: not a replica it already holds a
// copy of, and not a retry reserved for reliable clients.
func (s *Scheduler) admissible(wu *Workunit, c *clientState, g *retryGate) bool {
	if wu.assignedTo[c.id] {
		return false // replicas must verify each other across clients
	}
	if wu.errors > 0 && c.reliability < s.cfg.ReliabilityFloor {
		if !g.known {
			g.known, g.any = true, s.hasReliableClient()
		}
		if g.any {
			return false // reserve retries for reliable clients when any exist
		}
	}
	return true
}

// candidates walks the queue in order and snapshots the workunits the
// client may legally receive right now — one candidate per workunit, at
// its first queued copy — stopping after limit of them (limit < 0: all).
// The result reuses the scheduler's candidate scratch buffer and is only
// valid until the next request.
func (s *Scheduler) candidates(c *clientState, limit int) []Candidate {
	cands := s.candBuf[:0]
	var g retryGate
	ents := s.q.ents
	for at := s.q.head; at < len(ents) && len(cands) != limit; at++ {
		s.scanned++
		wu := ents[at].wu
		if wu == nil || wu.qhead != at || !s.admissible(wu, c, &g) {
			continue
		}
		wu.round = s.requests
		cands = append(cands, Candidate{
			WUID:       wu.ID,
			Pos:        at,
			CacheScore: cacheScore(c, wu.InputFiles),
			Errors:     wu.errors,
		})
	}
	s.candBuf = cands
	return cands
}

// cursor is one bucket's position in the indexed merge: the slot of its
// next admissible copy and the score every copy in the bucket shares.
type cursor struct {
	score float64
	at    int
}

// cursorBefore orders cursors the way Scored ranks candidates: higher
// score first, then earlier in the queue.
func cursorBefore(a, b cursor) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.at < b.at
}

// nextAdmissible follows a bucket's FIFO from slot at to the first copy
// the client may receive, or -1.
func (s *Scheduler) nextAdmissible(at int, c *clientState, g *retryGate) int {
	for ; at >= 0; at = s.q.ents[at].next {
		s.scanned++
		if wu := s.q.ents[at].wu; wu.qhead == at && s.admissible(wu, c, g) {
			return at
		}
	}
	return -1
}

// selectIndexed is Scored.Select for a class-scored policy without the
// view: it scores each bucket once and merges the bucket FIFOs by (score
// descending, queue order), which is the order selectTopK would rank the
// same candidates in — O(buckets + picks + skipped) instead of
// O(pending). With no terms every score ties and the merge is a walk
// from the queue head.
func (s *Scheduler) selectIndexed(p *Scored, view PolicyView, c *clientState, client ClientInfo, max int) []int64 {
	picks := s.pickBuf[:0]
	if len(p.Terms) == 0 {
		for _, cand := range s.candidates(c, max) {
			picks = append(picks, cand.WUID)
		}
		s.pickBuf = picks
		return picks
	}
	var g retryGate
	h := s.mergeBuf[:0]
	for _, b := range s.q.buckets {
		if at := s.nextAdmissible(b.head, c, &g); at >= 0 {
			class := Candidate{CacheScore: cacheScore(c, b.files)}
			h = append(h, cursor{score: p.total(view, client, class), at: at})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		heapDown(h, i, cursorBefore)
	}
	for len(h) > 0 && len(picks) < max {
		e := &s.q.ents[h[0].at]
		e.wu.round = s.requests
		picks = append(picks, e.wu.ID)
		if at := s.nextAdmissible(e.next, c, &g); at >= 0 {
			h[0].at = at
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		heapDown(h, 0, cursorBefore)
	}
	s.mergeBuf, s.pickBuf = h[:0], picks
	return picks
}

// RequestWork assigns up to max workunits to the client at virtual time
// now. The active Policy orders the eligible candidates (the default
// paper policy: workunits whose files the client caches first, then
// FIFO; retried workunits gated on client reliability); RequestWork
// itself is mechanics — it offers the candidates (as a view, or through
// the bucket index when the policy is class-scored), lets the policy
// choose, and enforces the invariants no policy may break: only
// eligible workunits are issued, each at most once per round and at
// most max per request.
func (s *Scheduler) RequestWork(clientID string, now float64, max int) []Assignment {
	c := s.client(clientID)
	// A client asking for work is present by definition: a volunteer that
	// left (DropClient) and rejoined counts as reliable-and-available
	// again for retry gating.
	c.gone = false
	if c.cordoned || max <= 0 {
		return nil
	}
	s.lastNow = now
	s.requests++
	view := PolicyView{
		Seed:             s.cfg.Seed,
		Request:          s.requests,
		Sticky:           s.cfg.StickyAffinity,
		ReliabilityFloor: s.cfg.ReliabilityFloor,
	}
	client := ClientInfo{Reliability: c.reliability}
	var picks []int64
	if p, ok := s.policy.(*Scored); ok && p.classScored() {
		picks = s.selectIndexed(p, view, c, client, max)
		if len(picks) == 0 {
			return nil
		}
	} else {
		view.Candidates = s.candidates(c, -1)
		if len(view.Candidates) == 0 {
			return nil
		}
		picks = s.policy.Select(view, client, max)
	}

	want := len(picks)
	if max < want {
		want = max
	}
	out := make([]Assignment, 0, want) // escapes to the caller; sized once
	events := s.eventBuf[:0]           // emitted after the queue is settled
	for _, id := range picks {
		if len(out) >= max {
			break // policy over-selected; hard-cap the batch
		}
		wu := s.wus[id]
		if wu == nil || wu.round != s.requests {
			continue // not an eligible candidate, or a duplicate pick
		}
		wu.round = 0 // consumed this round
		s.q.popFirst(wu)
		wu.queued--
		s.depth--
		// Cache hits must be read before the sticky loop below marks the
		// assigned files as cached.
		hits := cacheScore(c, wu.InputFiles)
		s.nextRes += s.idStep
		res := &Result{
			ID:       s.nextRes,
			WUID:     wu.ID,
			ClientID: clientID,
			SentAt:   now,
			Deadline: now + s.cfg.DefaultTimeout,
			Status:   ResInProgress,
		}
		s.results[res.ID] = res
		s.pushDeadline(res)
		wu.active++
		wu.status = WUInProgress
		c.inFlight++
		s.inflight++
		s.Issued++
		// The one-result-per-user set only matters for replicated
		// workunits, so singletons — the common case — never pay the map.
		if wu.Replication > 1 {
			if wu.assignedTo == nil {
				wu.assignedTo = make(map[string]bool)
			}
			wu.assignedTo[clientID] = true
		}
		out = append(out, Assignment{
			ResultID: res.ID,
			WUID:     wu.ID,
			Name:     wu.Name,
			App:      wu.App,
			// Shared with the workunit, not copied: assignments are
			// read-only download descriptors and workunit input lists
			// never mutate after AddWorkunit.
			InputFiles: wu.InputFiles,
			Blobs:      wu.BlobFiles,
			Payload:    wu.Payload,
			Deadline:   res.Deadline,
		})
		if s.sink != nil {
			events = append(events, SchedEvent{
				Kind: EvAssigned, T: now, WUID: wu.ID, ResultID: res.ID,
				Client: clientID, Wait: now - wu.queuedAt,
				CacheHits: hits, CacheFiles: len(wu.InputFiles),
			})
		}
		// Sticky files: the client will cache the inputs it downloads.
		if s.cfg.StickyAffinity {
			for _, f := range wu.InputFiles {
				c.cached[f] = true
			}
		}
	}
	s.q.compact()
	if len(out) > 0 {
		s.assignMix[s.policy.Name()] += len(out)
	}
	for _, e := range events {
		s.observe(e)
	}
	s.eventBuf = events[:0]
	return out
}

// DropClient marks a client as gone from the project. Its in-flight
// results still expire normally; it just stops counting as an available
// reliable host for retry gating.
func (s *Scheduler) DropClient(clientID string) {
	s.client(clientID).gone = true
}

// SetCordoned quarantines (or releases) a client: a cordoned client's
// RequestWork calls return nothing, while its in-flight results complete
// or expire normally. Cordoning a client the scheduler has not seen yet
// registers it, so the quarantine holds from its first contact.
func (s *Scheduler) SetCordoned(clientID string, on bool) {
	s.client(clientID).cordoned = on
}

// Cordoned reports whether a client is quarantined. Pure query.
func (s *Scheduler) Cordoned(clientID string) bool {
	c := s.peek(clientID)
	return c != nil && c.cordoned
}

// ClientSummary is the scheduler's externally visible view of one
// client, for the ops plane's listing and readiness endpoints.
type ClientSummary struct {
	ID          string  `json:"id"`
	Reliability float64 `json:"reliability"`
	InFlight    int     `json:"in_flight"`
	CachedFiles int     `json:"cached_files"`
	Gone        bool    `json:"gone,omitempty"`
	Cordoned    bool    `json:"cordoned,omitempty"`
}

// ClientSummaries returns every client the scheduler has seen, sorted by
// ID. Pure query: it copies state and registers nothing.
func (s *Scheduler) ClientSummaries() []ClientSummary {
	out := make([]ClientSummary, 0, len(s.clients))
	for _, c := range s.clients {
		out = append(out, ClientSummary{
			ID:          c.id,
			Reliability: c.reliability,
			InFlight:    c.inFlight,
			CachedFiles: len(c.cached),
			Gone:        c.gone,
			Cordoned:    c.cordoned,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// hasReliableClient reports whether any known, still-present client
// meets the floor.
func (s *Scheduler) hasReliableClient() bool {
	for _, c := range s.clients {
		if !c.gone && c.reliability >= s.cfg.ReliabilityFloor {
			return true
		}
	}
	return false
}

// CompleteResult records a returned result. valid=false counts as an error
// (validator rejection or client-reported failure). It returns the
// workunit and whether this completion made the workunit Done (i.e. the
// caller should assimilate this canonical result).
func (s *Scheduler) CompleteResult(resultID int64, valid bool, now float64) (*Workunit, bool, error) {
	res := s.results[resultID]
	if res == nil {
		return nil, false, fmt.Errorf("boinc: unknown result %d", resultID)
	}
	if res.Status != ResInProgress {
		return nil, false, fmt.Errorf("boinc: result %d already %v", resultID, res.Status)
	}
	wu := s.wus[res.WUID]
	c := s.client(res.ClientID)
	s.lastNow = now
	c.inFlight--
	wu.active--
	s.inflight--
	turnaround := now - res.SentAt
	if valid {
		res.Status = ResSuccess
		c.reliability = 0.9*c.reliability + 0.1
		if wu.status == WUDone {
			// A replica already completed this workunit.
			res.Status = ResAbandoned
			s.observe(SchedEvent{Kind: EvValid, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: turnaround})
			return wu, false, nil
		}
		wu.valid++
		if wu.valid < wu.Quorum {
			// Quorum not yet reached; make sure enough copies remain in
			// flight or queued to get there.
			if wu.valid+wu.active+wu.queued < wu.Quorum {
				wu.queuedAt = now
				s.enqueue(wu)
				s.QuorumRetries++
			}
			s.observe(SchedEvent{Kind: EvValid, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: turnaround})
			return wu, false, nil
		}
		s.retire(wu, WUDone) // drops any still-queued replicas
		s.Completions++
		s.observe(SchedEvent{Kind: EvValid, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: turnaround})
		s.observe(SchedEvent{Kind: EvWUDone, T: now, WUID: wu.ID, Client: res.ClientID})
		return wu, true, nil
	}
	res.Status = ResError
	c.reliability = 0.9 * c.reliability
	s.Invalid++
	s.observe(SchedEvent{Kind: EvInvalid, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: turnaround})
	// One client's rejections are charged to a workunit's budget once:
	// however often it uploads garbage for the workunit, it cannot fail
	// it alone (a client that registers before any honest one gets every
	// retry, so otherwise it could).
	charge := !wu.rejectedBy[c.id]
	if charge && !wu.terminal() {
		if wu.rejectedBy == nil {
			wu.rejectedBy = make(map[string]bool)
		}
		wu.rejectedBy[c.id] = true
	}
	s.noteFailure(wu, charge)
	return wu, false, nil
}

// noteFailure reissues the workunit after a failed or timed-out result,
// charging its error budget when charge is set, and fails it once the
// budget is spent.
func (s *Scheduler) noteFailure(wu *Workunit, charge bool) {
	if wu.status == WUDone {
		return
	}
	if charge {
		wu.errors++
	}
	if wu.errors > wu.MaxErrors {
		s.retire(wu, WUFailed)
		s.Failures++
		s.observe(SchedEvent{Kind: EvWUFailed, T: s.lastNow, WUID: wu.ID})
		return
	}
	wu.status = WUPending
	wu.queuedAt = s.lastNow
	s.enqueue(wu)
	s.Reissued++
	s.QuorumRetries++
	s.observe(SchedEvent{Kind: EvReissued, T: s.lastNow, WUID: wu.ID})
}

// deadlineBefore orders the deadline heap: earliest deadline first, ties
// by result ID.
func deadlineBefore(a, b *Result) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.ID < b.ID
}

// pushDeadline enters a freshly issued result into the deadline heap,
// first sweeping out finished results once they are the majority so the
// heap stays O(in flight) however long deadlines are.
func (s *Scheduler) pushDeadline(res *Result) {
	if h := s.deadlines; len(h) > 2*s.inflight+compactSlack {
		kept := h[:0]
		for _, r := range h {
			if r.Status == ResInProgress {
				kept = append(kept, r)
			}
		}
		clear(h[len(kept):])
		for i := len(kept)/2 - 1; i >= 0; i-- {
			heapDown(kept, i, deadlineBefore)
		}
		s.deadlines = kept
	}
	s.deadlines = append(s.deadlines, res)
	heapUp(s.deadlines, len(s.deadlines)-1, deadlineBefore)
}

// earliestDeadline returns the outstanding result with the earliest
// deadline, or nil, discarding finished results that surface on the way.
func (s *Scheduler) earliestDeadline() *Result {
	for len(s.deadlines) > 0 && s.deadlines[0].Status != ResInProgress {
		s.popDeadline()
	}
	if len(s.deadlines) == 0 {
		return nil
	}
	return s.deadlines[0]
}

func (s *Scheduler) popDeadline() {
	h := s.deadlines
	last := len(h) - 1
	h[0], h[last] = h[last], nil
	s.deadlines = h[:last]
	heapDown(s.deadlines, 0, deadlineBefore)
}

// ExpireTimeouts marks overdue results as timed out and requeues their
// workunits for another client (§III-B fault tolerance). It returns the
// IDs of expired results. The sweep pops the deadline heap, so a call
// that finds nothing overdue — the HTTP server makes one before every
// work request — costs O(1).
func (s *Scheduler) ExpireTimeouts(now float64) []int64 {
	s.lastNow = now
	var expired []int64
	for res := s.earliestDeadline(); res != nil && now > res.Deadline; res = s.earliestDeadline() {
		expired = append(expired, res.ID)
		s.popDeadline()
	}
	// Process in ID order, not deadline order, so reissue order (and thus
	// simulation behaviour) is what it has always been.
	slices.Sort(expired)
	for _, id := range expired {
		res := s.results[id]
		res.Status = ResTimedOut
		wu := s.wus[res.WUID]
		c := s.client(res.ClientID)
		c.inFlight--
		c.reliability = 0.9 * c.reliability
		wu.active--
		s.inflight--
		s.Timeouts++
		s.observe(SchedEvent{Kind: EvTimeout, T: now, WUID: wu.ID, ResultID: res.ID, Client: res.ClientID, Wait: now - res.SentAt})
		s.noteFailure(wu, true)
	}
	return expired
}

// NextDeadline returns the earliest outstanding result deadline, or ok =
// false when nothing is in flight. The simulator uses it to schedule
// timeout sweeps exactly when they can matter.
func (s *Scheduler) NextDeadline() (float64, bool) {
	if res := s.earliestDeadline(); res != nil {
		return res.Deadline, true
	}
	return 0, false
}

// Done reports whether every workunit reached a terminal state.
func (s *Scheduler) Done() bool { return s.open == 0 }

// PendingCount returns the number of queued (unassigned) workunit copies.
func (s *Scheduler) PendingCount() int { return s.depth }

// InFlight returns the number of outstanding results. It is maintained
// incrementally (every transition out of ResInProgress passes through
// CompleteResult or ExpireTimeouts), so the query is O(1) no matter how
// many results the run has issued.
func (s *Scheduler) InFlight() int { return s.inflight }

// SchedStats is a snapshot of one scheduler's lifecycle counters and
// queue depths. ShardedScheduler sums these across shards, so reporting
// code reads one aggregate instead of poking at per-shard fields.
type SchedStats struct {
	Issued, Reissued, Timeouts, Failures, Completions int
	Invalid, QuorumRetries                            int
	Pending, InFlight, Clients                        int
	Done                                              bool
}

// Stats snapshots the scheduler's counters. Pure query.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Issued:        s.Issued,
		Reissued:      s.Reissued,
		Timeouts:      s.Timeouts,
		Failures:      s.Failures,
		Completions:   s.Completions,
		Invalid:       s.Invalid,
		QuorumRetries: s.QuorumRetries,
		Pending:       s.depth,
		InFlight:      s.inflight,
		Clients:       len(s.clients),
		Done:          s.Done(),
	}
}
