package boinc

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// newPolicyScheduler builds a scheduler running the named registered
// policy with a fixed seed.
func newPolicyScheduler(t *testing.T, name string, floor float64) *Scheduler {
	t.Helper()
	p, err := NewPolicy(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultSchedulerConfig()
	cfg.DefaultTimeout = 100
	cfg.ReliabilityFloor = floor
	cfg.Seed = 42
	s := NewScheduler(cfg)
	s.SetPolicy(p)
	return s
}

// TestPolicyConformance runs every registered policy through the
// invariants no policy may break: determinism under a fixed seed,
// respecting max, never handing one client two copies of a replicated
// workunit, honouring the reliability floor on retries, and not letting
// gone clients hold the retry gate open.
func TestPolicyConformance(t *testing.T) {
	for _, name := range PolicyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Run("determinism", func(t *testing.T) { conformDeterminism(t, name) })
			t.Run("max", func(t *testing.T) { conformMax(t, name) })
			t.Run("replication", func(t *testing.T) { conformReplication(t, name) })
			t.Run("reliability-floor", func(t *testing.T) { conformFloor(t, name) })
			t.Run("gone-clients", func(t *testing.T) { conformGone(t, name) })
		})
	}
}

// conformSequence drives one fixed workload and returns the assignment
// log.
func conformSequence(t *testing.T, name string) []string {
	s := newPolicyScheduler(t, name, 0)
	for i := 0; i < 20; i++ {
		s.AddWorkunit(Workunit{
			Name:       fmt.Sprintf("wu%02d", i),
			InputFiles: []string{fmt.Sprintf("shard%d", i%5)},
		})
	}
	s.NoteCached("c1", "shard2")
	var log []string
	now := 0.0
	for round := 0; round < 12; round++ {
		now += 5
		for _, id := range []string{"c1", "c2", "c3"} {
			for _, a := range s.RequestWork(id, now, 2) {
				log = append(log, fmt.Sprintf("%s<-%d", id, a.WUID))
				valid := (a.WUID+int64(round))%3 != 0
				s.CompleteResult(a.ResultID, valid, now+1)
			}
		}
	}
	return log
}

func conformDeterminism(t *testing.T, name string) {
	a := conformSequence(t, name)
	b := conformSequence(t, name)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different assignments:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("policy assigned nothing")
	}
}

func conformMax(t *testing.T, name string) {
	s := newPolicyScheduler(t, name, 0)
	for i := 0; i < 30; i++ {
		s.AddWorkunit(Workunit{Name: "wu"})
	}
	for _, max := range []int{0, 1, 3, 7, 100} {
		got := len(s.RequestWork("c1", 0, max))
		if got > max {
			t.Fatalf("max=%d but %d assigned", max, got)
		}
		if max > 0 && got == 0 && s.PendingCount() > 0 {
			t.Fatalf("max=%d, pending work, nothing assigned", max)
		}
	}
}

func conformReplication(t *testing.T, name string) {
	s := newPolicyScheduler(t, name, 0)
	for i := 0; i < 8; i++ {
		s.AddWorkunit(Workunit{Name: fmt.Sprintf("r%d", i), Replication: 3})
	}
	got := map[string]map[int64]int{}
	for round := 0; round < 10; round++ {
		for _, id := range []string{"c1", "c2", "c3", "c4"} {
			for _, a := range s.RequestWork(id, float64(round), 4) {
				if got[id] == nil {
					got[id] = map[int64]int{}
				}
				got[id][a.WUID]++
				if got[id][a.WUID] > 1 {
					t.Fatalf("round %d: client %s got workunit %d twice", round, id, a.WUID)
				}
			}
		}
	}
}

func conformFloor(t *testing.T, name string) {
	s := newPolicyScheduler(t, name, 0.9)
	s.AddWorkunit(Workunit{Name: "wu-a"})
	s.AddWorkunit(Workunit{Name: "wu-b"})
	// "bad" fails both workunits, sinking its score below the floor and
	// turning every pending workunit into a retry.
	for _, a := range s.RequestWork("bad", 0, 2) {
		s.CompleteResult(a.ResultID, false, 0)
	}
	if s.Reliability("bad") >= 0.9 {
		t.Fatalf("bad reliability still %v", s.Reliability("bad"))
	}
	// "good" is known and reliable (registered by asking, even for 0).
	s.RequestWork("good", 1, 0)
	// Whatever the policy prefers, every candidate is a retry, so the
	// unreliable client must get nothing...
	if asn := s.RequestWork("bad", 2, 5); len(asn) != 0 {
		t.Fatalf("policy %s: retried workunits reached an unreliable client: %v", name, asn)
	}
	// ...while the reliable client receives them.
	if asn := s.RequestWork("good", 3, 5); len(asn) == 0 {
		t.Fatalf("policy %s: reliable client did not receive the retries", name)
	}
}

func conformGone(t *testing.T, name string) {
	s := newPolicyScheduler(t, name, 0.9)
	s.AddWorkunit(Workunit{Name: "wu"})
	for i := 0; i < 6; i++ {
		asn := s.RequestWork("bad", 0, 1)
		if len(asn) == 0 {
			break
		}
		s.CompleteResult(asn[0].ResultID, false, 0)
	}
	// "good" is known and reliable, so the retry is reserved for it.
	s.RequestWork("good", 0, 0)
	if asn := s.RequestWork("bad", 2, 5); len(asn) != 0 {
		t.Fatalf("retried workunit assigned past the gate: %v", asn)
	}
	// Once "good" is gone it must stop holding the gate: the remaining
	// client gets the retry instead of starving it forever.
	s.DropClient("good")
	if asn := s.RequestWork("bad", 3, 5); len(asn) == 0 {
		t.Fatalf("policy %s: retry starved behind a gone client", name)
	}
}

// shadowQueue is the naive model the differential test checks the
// scheduler against: the pending queue as a plain slice of workunit IDs,
// kept in step from the lifecycle event stream alone, scanned in full
// and fully sorted on every request. It stays a full scan on purpose.
type shadowQueue struct {
	s       *Scheduler
	pending []int64
}

func (q *shadowQueue) OnSchedEvent(e SchedEvent) {
	switch e.Kind {
	case EvCreated:
		for i := 0; i < q.s.Workunit(e.WUID).Replication; i++ {
			q.pending = append(q.pending, e.WUID)
		}
	case EvReissued:
		q.pending = append(q.pending, e.WUID)
	case EvValid:
		// A valid result short of quorum may top the queue up by one
		// copy; no event of its own says so, the depth does.
		if e.Pending == len(q.pending)+1 {
			q.pending = append(q.pending, e.WUID)
		}
	case EvAssigned:
		i := slices.Index(q.pending, e.WUID)
		q.pending = slices.Delete(q.pending, i, i+1)
	case EvWUDone:
		q.pending = slices.DeleteFunc(q.pending, func(id int64) bool { return id == e.WUID })
	}
}

// selection is what the active policy must pick for the client's next
// request: every eligible workunit at its first queued copy, then — for
// Scored policies — a full stable sort by (score descending, position),
// the pre-policy-API algorithm; other policies decide over the same view.
func (q *shadowQueue) selection(clientID string, max int) []int64 {
	s := q.s
	c := s.peek(clientID)
	var cands []Candidate
	seen := map[int64]bool{}
	for pos, id := range q.pending {
		wu := s.wus[id]
		if wu.terminal() || seen[id] || wu.assignedTo[clientID] {
			continue
		}
		if wu.errors > 0 && c.reliability < s.cfg.ReliabilityFloor && s.hasReliableClient() {
			continue
		}
		seen[id] = true
		cands = append(cands, Candidate{WUID: id, Pos: pos, CacheScore: cacheScore(c, wu.InputFiles), Errors: wu.errors})
	}
	if c.cordoned || len(cands) == 0 {
		return nil
	}
	view := PolicyView{Seed: s.cfg.Seed, Request: s.requests + 1, Sticky: s.cfg.StickyAffinity,
		ReliabilityFloor: s.cfg.ReliabilityFloor, Candidates: cands}
	client := ClientInfo{Reliability: c.reliability}
	var picks []int64
	if p, ok := s.policy.(*Scored); ok {
		sort.SliceStable(cands, func(i, j int) bool {
			return p.total(view, client, cands[i]) > p.total(view, client, cands[j])
		})
		for _, cd := range cands {
			picks = append(picks, cd.WUID)
		}
	} else {
		picks = s.policy.Select(view, client, max)
	}
	return picks[:min(max, len(picks))]
}

// naiveDone is Scheduler.Done as it used to be computed.
func naiveDone(s *Scheduler) bool {
	for _, wu := range s.wus {
		if !wu.terminal() {
			return false
		}
	}
	return true
}

// TestPaperPolicyMatchesReference drives a long randomised operation
// stream under every registered policy — replication and quorum retries,
// invalid and timed-out results, error-budget exhaustion, deadline
// changes, policy hot swaps, dropped and cordoned clients — and checks every
// RequestWork pick for pick against the shadow queue, along with the
// queue depth and Done after every step.
func TestPaperPolicyMatchesReference(t *testing.T) {
	topUps := 0
	for i, name := range PolicyNames() {
		other := PolicyNames()[(i+1)%len(PolicyNames())]
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				st := runDifferential(t, name, other, seed)
				topUps += st.QuorumRetries - st.Reissued
			}
		})
	}
	if topUps == 0 {
		t.Fatal("no stream topped a failed workunit's quorum up")
	}
}

func runDifferential(t *testing.T, name, other string, seed int64) SchedStats {
	rng := rand.New(rand.NewSource(seed))
	s := newPolicyScheduler(t, name, 0.8)
	shadow := &shadowQueue{s: s}
	s.SetSink(shadow)
	nextWU := 0
	add := func() {
		nextWU++
		repl := 1 + rng.Intn(3)
		files := []string{"model", fmt.Sprintf("shard%d", rng.Intn(12))}
		// Each new workunit changes the deadline, so results in flight
		// carry a mix of them.
		s.SetDefaultTimeout(float64(40 * (1 + rng.Intn(3))))
		s.AddWorkunit(Workunit{
			Name:        fmt.Sprintf("wu%d", nextWU),
			InputFiles:  files,
			MaxErrors:   1 + rng.Intn(6),
			Replication: repl,
			Quorum:      1 + rng.Intn(repl),
		})
	}
	for i := 0; i < 240; i++ {
		add()
	}
	clients := []string{"a", "b", "c", "d", "e", "f"}
	for i, c := range clients {
		s.NoteCached(c, fmt.Sprintf("shard%d", 2*i))
		s.NoteCached(c, fmt.Sprintf("shard%d", 2*i+1))
	}
	now := 0.0
	var open []int64
	swapped := false
	for step := 0; step < 4000; step++ {
		client := clients[rng.Intn(len(clients))]
		switch op := rng.Intn(100); {
		case op < 45:
			max := 1 + rng.Intn(4)
			// A zero-slot request does what the real one does first —
			// register the client, mark it present — and nothing else.
			s.RequestWork(client, now, 0)
			want := shadow.selection(client, max)
			var got []int64
			for _, a := range s.RequestWork(client, now, max) {
				got = append(got, a.WUID)
				open = append(open, a.ResultID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d policy %s client %s max %d: got %v want %v",
					seed, step, s.Policy().Name(), client, max, got, want)
			}
		case op < 75:
			if len(open) > 0 {
				i := rng.Intn(len(open))
				id := open[i]
				open = slices.Delete(open, i, i+1)
				if s.Result(id).Status == ResInProgress {
					s.CompleteResult(id, rng.Intn(10) < 6, now)
				}
			}
		case op < 85:
			now += float64(rng.Intn(8))
			s.ExpireTimeouts(now)
		case op < 92:
			add()
		case op < 94:
			s.SetDefaultTimeout(float64(30 * (1 + rng.Intn(3))))
		case op < 96:
			swapped = !swapped
			next := name
			if swapped {
				next = other
			}
			p, err := NewPolicy(next)
			if err != nil {
				t.Fatal(err)
			}
			s.SetPolicy(p)
		case op < 98:
			s.DropClient(client)
		default:
			s.SetCordoned(client, !s.Cordoned(client))
		}
		if s.PendingCount() != len(shadow.pending) {
			t.Fatalf("seed %d step %d: PendingCount %d, shadow queue holds %d", seed, step, s.PendingCount(), len(shadow.pending))
		}
		if s.Done() != naiveDone(s) {
			t.Fatalf("seed %d step %d: Done() = %v, scan says %v", seed, step, s.Done(), naiveDone(s))
		}
	}
	if s.Failures == 0 || s.Timeouts == 0 || s.Invalid == 0 || s.Completions == 0 {
		t.Fatalf("seed %d: stream too tame: %+v", seed, s.Stats())
	}
	return s.Stats()
}

// rogue policy for TestSchedulerEnforcesInvariants: returns duplicate,
// unknown and over-max picks.
type rogue struct{}

func (rogue) Name() string { return "rogue" }
func (rogue) Select(view PolicyView, _ ClientInfo, max int) []int64 {
	var out []int64
	for i := 0; i < 3; i++ {
		for _, c := range view.Candidates {
			out = append(out, c.WUID) // every candidate three times
		}
	}
	return append(out, 99999, -1) // plus ids that were never workunits
}

// TestSchedulerEnforcesInvariants pins the mechanics/policy split: a
// misbehaving policy cannot over-assign, double-assign or issue
// non-candidates — it degrades to a smaller assignment, never an
// invalid one.
func TestSchedulerEnforcesInvariants(t *testing.T) {
	cfg := DefaultSchedulerConfig()
	s := NewScheduler(cfg)
	s.SetPolicy(rogue{})
	for i := 0; i < 5; i++ {
		s.AddWorkunit(Workunit{Name: fmt.Sprintf("wu%d", i)})
	}
	asns := s.RequestWork("c1", 0, 3)
	if len(asns) != 3 {
		t.Fatalf("rogue policy issued %d assignments, want 3", len(asns))
	}
	seen := map[int64]bool{}
	for _, a := range asns {
		if seen[a.WUID] {
			t.Fatalf("workunit %d issued twice in one round", a.WUID)
		}
		seen[a.WUID] = true
		if s.Workunit(a.WUID) == nil {
			t.Fatalf("assignment for unknown workunit %d", a.WUID)
		}
	}
	if s.PendingCount() != 2 {
		t.Fatalf("PendingCount = %d, want 2", s.PendingCount())
	}
}

func TestPolicyRegistry(t *testing.T) {
	names := PolicyNames()
	want := []string{"fifo", "paper", "random", "reliability-weighted"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("PolicyNames() = %v, want %v", names, want)
	}
	if _, err := NewPolicy("nope"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("unknown policy error = %v", err)
	}
	if _, err := NewPolicy("paper", "extra"); err == nil {
		t.Fatal("paper with arguments must error")
	}
	if _, err := NewPolicy("random", "not-a-seed"); err == nil {
		t.Fatal("random with junk seed must error")
	}
	if p, err := NewPolicy("random", "7"); err != nil || p.Name() != "random" {
		t.Fatalf("random 7: %v %v", p, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	RegisterPolicy("paper", func(...string) (Policy, error) { return nil, nil })
}

// TestPolicyBehaviours spot-checks that each built-in actually expresses
// its preference (the conformance suite only checks invariants).
func TestPolicyBehaviours(t *testing.T) {
	t.Run("fifo-ignores-cache", func(t *testing.T) {
		s := newPolicyScheduler(t, "fifo", 0)
		s.NoteCached("c1", "shardA")
		s.AddWorkunit(Workunit{Name: "b", InputFiles: []string{"shardB"}})
		s.AddWorkunit(Workunit{Name: "a", InputFiles: []string{"shardA"}})
		asn := s.RequestWork("c1", 0, 1)
		if len(asn) != 1 || asn[0].Name != "b" {
			t.Fatalf("fifo did not pick the oldest workunit: %+v", asn)
		}
	})
	t.Run("locality-beats-fifo", func(t *testing.T) {
		s := newPolicyScheduler(t, "paper", 0)
		s.NoteCached("c1", "shardA")
		s.AddWorkunit(Workunit{Name: "b", InputFiles: []string{"shardB"}})
		s.AddWorkunit(Workunit{Name: "a", InputFiles: []string{"shardA"}})
		asn := s.RequestWork("c1", 0, 1)
		if len(asn) != 1 || asn[0].Name != "a" {
			t.Fatalf("paper ignored the cached shard: %+v", asn)
		}
	})
	t.Run("reliability-weighted-retry-placement", func(t *testing.T) {
		// The floor is the pivot: clients below it push retries back,
		// clients above it pull them forward. A 0.95 floor puts one
		// failure (reliability 0.9) below and a fresh client above.
		s := newPolicyScheduler(t, "reliability-weighted", 0.95)
		// One retried workunit (errors > 0), one fresh one behind it.
		s.AddWorkunit(Workunit{Name: "retry"})
		asn := s.RequestWork("flaky", 0, 1)
		s.CompleteResult(asn[0].ResultID, false, 0) // errors=1, reliability sinks
		s.AddWorkunit(Workunit{Name: "fresh"})
		// The unreliable client is steered to the fresh workunit first
		// (it still sees the retry: it is the only known client, so the
		// mechanics gate stays open).
		asn = s.RequestWork("flaky", 1, 1)
		if len(asn) != 1 || asn[0].Name != "fresh" {
			t.Fatalf("unreliable client was not steered to fresh work: %+v", asn)
		}
		// A reliable client prefers the retried workunit.
		s2 := newPolicyScheduler(t, "reliability-weighted", 0.95)
		s2.AddWorkunit(Workunit{Name: "retry"})
		asn = s2.RequestWork("flaky", 0, 1)
		s2.CompleteResult(asn[0].ResultID, false, 0)
		s2.AddWorkunit(Workunit{Name: "fresh"})
		asn = s2.RequestWork("steady", 1, 1)
		if len(asn) != 1 || asn[0].Name != "retry" {
			t.Fatalf("reliable client was not steered to the retry: %+v", asn)
		}
	})
	t.Run("random-seed-changes-order", func(t *testing.T) {
		order := func(seed int64) []int64 {
			cfg := DefaultSchedulerConfig()
			cfg.Seed = seed
			s := NewScheduler(cfg)
			p, err := NewPolicy("random")
			if err != nil {
				t.Fatal(err)
			}
			s.SetPolicy(p)
			for i := 0; i < 16; i++ {
				s.AddWorkunit(Workunit{Name: fmt.Sprintf("wu%d", i)})
			}
			var ids []int64
			for _, a := range s.RequestWork("c1", 0, 8) {
				ids = append(ids, a.WUID)
			}
			return ids
		}
		a, b := order(1), order(2)
		if reflect.DeepEqual(a, b) {
			t.Fatalf("different run seeds produced the identical random order %v", a)
		}
		if !reflect.DeepEqual(order(1), order(1)) {
			t.Fatal("same seed must reproduce the order")
		}
	})
	t.Run("scored-combinator-weights", func(t *testing.T) {
		// Heavily weighted retry term must override the cache term.
		p := &Scored{Label: "combo", Terms: []Term{
			{Weight: 1, Score: func(_ PolicyView, _ ClientInfo, c Candidate) float64 {
				return float64(c.CacheScore)
			}},
			{Weight: 100, Score: func(_ PolicyView, _ ClientInfo, c Candidate) float64 {
				return float64(c.Errors)
			}},
		}}
		cfg := DefaultSchedulerConfig()
		s := NewScheduler(cfg)
		s.NoteCached("c1", "shardA")
		s.AddWorkunit(Workunit{Name: "cold-retry", InputFiles: []string{"shardB"}})
		failed := s.RequestWork("flaky", 0, 1)
		s.AddWorkunit(Workunit{Name: "cached-fresh", InputFiles: []string{"shardA"}})
		s.CompleteResult(failed[0].ResultID, false, 1) // requeued behind cached-fresh
		s.SetPolicy(p)
		asn := s.RequestWork("c1", 2, 1)
		if len(asn) != 1 || asn[0].Name != "cold-retry" {
			t.Fatalf("weighted terms not combined: %+v", asn)
		}
		if p.Name() != "combo" {
			t.Fatalf("Name() = %q", p.Name())
		}
	})
}

// TestBuiltinPoliciesDiffer holds every registered policy to its name:
// for each pair there is a fixture, built only from what a deployment
// can set, on which the two pick differently. A policy that makes
// another's decisions on every fixture fails here.
func TestBuiltinPoliciesDiffer(t *testing.T) {
	wuids := func(asn []Assignment) []int64 {
		var ids []int64
		for _, a := range asn {
			ids = append(ids, a.WUID)
		}
		return ids
	}
	fixtures := []struct {
		name string
		run  func(s *Scheduler) []int64
	}{
		// The requesting client caches the younger workunit's shard.
		{"cached-shard", func(s *Scheduler) []int64 {
			s.NoteCached("c1", "shardA")
			s.AddWorkunit(Workunit{Name: "b", InputFiles: []string{"shardB"}})
			s.AddWorkunit(Workunit{Name: "a", InputFiles: []string{"shardA"}})
			return wuids(s.RequestWork("c1", 0, 1))
		}},
		// A timed-out workunit queues behind fresh work and a reliable
		// client asks.
		{"timed-out-retry", func(s *Scheduler) []int64 {
			s.AddWorkunit(Workunit{Name: "retry"})
			s.RequestWork("flaky", 0, 1)
			s.AddWorkunit(Workunit{Name: "fresh"})
			s.ExpireTimeouts(101)
			return wuids(s.RequestWork("steady", 101, 1))
		}},
		// Eight fresh, uncached workunits, all asked for at once.
		{"fresh-backlog", func(s *Scheduler) []int64 {
			for i := 0; i < 8; i++ {
				s.AddWorkunit(Workunit{Name: fmt.Sprintf("wu%d", i), InputFiles: []string{fmt.Sprintf("shard%d", i)}})
			}
			return wuids(s.RequestWork("c1", 0, 8))
		}},
	}
	names := PolicyNames()
	picks := map[string][][]int64{}
	for _, name := range names {
		for _, f := range fixtures {
			picks[name] = append(picks[name], f.run(newPolicyScheduler(t, name, 0.5)))
		}
	}
	for i, a := range names {
		for _, b := range names[i+1:] {
			differ := false
			for k, f := range fixtures {
				if !slices.Equal(picks[a][k], picks[b][k]) {
					differ = true
					t.Logf("%s and %s differ on %s: %v vs %v", a, b, f.name, picks[a][k], picks[b][k])
					break
				}
			}
			if !differ {
				t.Errorf("%s and %s pick alike on every fixture: %v", a, b, picks[a])
			}
		}
	}
}
