package boinc

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func newTestScheduler() *Scheduler {
	cfg := DefaultSchedulerConfig()
	cfg.DefaultTimeout = 100
	return NewScheduler(cfg)
}

func TestAddAndAssign(t *testing.T) {
	s := newTestScheduler()
	id := s.AddWorkunit(Workunit{Name: "t1", InputFiles: []string{"shard1"}})
	asn := s.RequestWork("c1", 0, 4)
	if len(asn) != 1 {
		t.Fatalf("got %d assignments, want 1", len(asn))
	}
	if asn[0].WUID != id || asn[0].Name != "t1" {
		t.Fatalf("assignment = %+v", asn[0])
	}
	if asn[0].Deadline != 100 {
		t.Fatalf("deadline = %v, want 100", asn[0].Deadline)
	}
	if s.Workunit(id).Status() != WUInProgress {
		t.Fatalf("status = %v", s.Workunit(id).Status())
	}
	// No double assignment of the same workunit.
	if more := s.RequestWork("c2", 0, 4); len(more) != 0 {
		t.Fatalf("workunit assigned twice: %v", more)
	}
}

func TestMaxTasksHonored(t *testing.T) {
	s := newTestScheduler()
	for i := 0; i < 10; i++ {
		s.AddWorkunit(Workunit{Name: "wu"})
	}
	if got := len(s.RequestWork("c1", 0, 3)); got != 3 {
		t.Fatalf("got %d, want 3", got)
	}
	if got := len(s.RequestWork("c1", 0, 0)); got != 0 {
		t.Fatalf("max=0 returned %d", got)
	}
}

func TestCompleteSuccess(t *testing.T) {
	s := newTestScheduler()
	s.AddWorkunit(Workunit{Name: "t"})
	asn := s.RequestWork("c1", 0, 1)
	wu, canonical, err := s.CompleteResult(asn[0].ResultID, true, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !canonical {
		t.Fatal("first valid result must be canonical")
	}
	if wu.Status() != WUDone {
		t.Fatalf("status = %v", wu.Status())
	}
	if !s.Done() {
		t.Fatal("scheduler should be done")
	}
}

func TestCompleteInvalidReissues(t *testing.T) {
	s := newTestScheduler()
	s.AddWorkunit(Workunit{Name: "t"})
	asn := s.RequestWork("c1", 0, 1)
	wu, canonical, err := s.CompleteResult(asn[0].ResultID, false, 10)
	if err != nil || canonical {
		t.Fatalf("canonical=%v err=%v", canonical, err)
	}
	if wu.Status() != WUPending || wu.Errors() != 1 {
		t.Fatalf("wu = %v errors=%d", wu.Status(), wu.Errors())
	}
	if s.PendingCount() != 1 {
		t.Fatal("workunit not requeued")
	}
	if s.Reissued != 1 {
		t.Fatalf("Reissued = %d", s.Reissued)
	}
}

func TestCompleteUnknownResult(t *testing.T) {
	s := newTestScheduler()
	if _, _, err := s.CompleteResult(99, true, 0); err == nil {
		t.Fatal("unknown result must error")
	}
}

func TestDoubleCompleteRejected(t *testing.T) {
	s := newTestScheduler()
	s.AddWorkunit(Workunit{Name: "t"})
	asn := s.RequestWork("c1", 0, 1)
	if _, _, err := s.CompleteResult(asn[0].ResultID, true, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.CompleteResult(asn[0].ResultID, true, 2); err == nil {
		t.Fatal("second completion must error")
	}
}

func TestTimeoutReissue(t *testing.T) {
	s := newTestScheduler()
	s.SetDefaultTimeout(50)
	s.AddWorkunit(Workunit{Name: "t"})
	asn := s.RequestWork("flaky", 0, 1)
	if exp := s.ExpireTimeouts(49); len(exp) != 0 {
		t.Fatalf("premature expiry: %v", exp)
	}
	exp := s.ExpireTimeouts(51)
	if len(exp) != 1 || exp[0] != asn[0].ResultID {
		t.Fatalf("expired = %v", exp)
	}
	if s.Timeouts != 1 {
		t.Fatalf("Timeouts = %d", s.Timeouts)
	}
	// The workunit must be assignable again — to a different client.
	asn2 := s.RequestWork("steady", 51, 1)
	if len(asn2) != 1 || asn2[0].WUID != asn[0].WUID {
		t.Fatalf("reissue failed: %v", asn2)
	}
	// Late upload from the flaky client is rejected.
	if _, _, err := s.CompleteResult(asn[0].ResultID, true, 60); err == nil {
		t.Fatal("late completion of timed-out result must error")
	}
}

func TestErrorBudgetExhaustion(t *testing.T) {
	cfg := DefaultSchedulerConfig()
	cfg.DefaultMaxErrors = 2
	cfg.ReliabilityFloor = 0 // don't gate retries in this test
	s := NewScheduler(cfg)
	s.AddWorkunit(Workunit{Name: "poison"})
	for i := 0; i < 3; i++ { // one client's rejections are charged once
		asn := s.RequestWork(fmt.Sprintf("c%d", i), float64(i), 1)
		if len(asn) != 1 {
			t.Fatalf("round %d: no assignment", i)
		}
		s.CompleteResult(asn[0].ResultID, false, float64(i))
	}
	wu := s.Workunit(1)
	if wu.Status() != WUFailed {
		t.Fatalf("status = %v, want failed", wu.Status())
	}
	if s.Failures != 1 {
		t.Fatalf("Failures = %d", s.Failures)
	}
	if !s.Done() {
		t.Fatal("failed workunit is terminal; scheduler should be done")
	}
}

func TestReliabilityTracking(t *testing.T) {
	s := newTestScheduler()
	for i := 0; i < 6; i++ {
		s.AddWorkunit(Workunit{Name: "wu"})
	}
	// c1 succeeds, c2 fails repeatedly.
	for i := 0; i < 3; i++ {
		a1 := s.RequestWork("good", float64(i), 1)
		s.CompleteResult(a1[0].ResultID, true, float64(i))
		a2 := s.RequestWork("bad", float64(i), 1)
		s.CompleteResult(a2[0].ResultID, false, float64(i))
	}
	if s.Reliability("good") <= s.Reliability("bad") {
		t.Fatalf("reliability good=%v bad=%v", s.Reliability("good"), s.Reliability("bad"))
	}
}

func TestRetriesGatedOnReliability(t *testing.T) {
	cfg := DefaultSchedulerConfig()
	cfg.ReliabilityFloor = 0.9
	s := NewScheduler(cfg)
	s.AddWorkunit(Workunit{Name: "wu"})
	// Build up a reliable client.
	s.AddWorkunit(Workunit{Name: "warmup"})
	// "bad" fails the first workunit many times to sink its score.
	for i := 0; i < 6; i++ {
		asn := s.RequestWork("bad", 0, 1)
		if len(asn) == 0 {
			break
		}
		s.CompleteResult(asn[0].ResultID, false, 0)
	}
	if s.Reliability("bad") >= 0.9 {
		t.Fatalf("bad reliability still %v", s.Reliability("bad"))
	}
	// "good" completes one workunit to stay at ~1.0 and be known.
	asnG := s.RequestWork("good", 0, 1)
	if len(asnG) == 1 {
		s.CompleteResult(asnG[0].ResultID, true, 1)
	}
	// A retried workunit must now be withheld from "bad"...
	if asn := s.RequestWork("bad", 2, 5); len(asn) != 0 {
		t.Fatalf("retried workunit assigned to unreliable client: %v", asn)
	}
	// ...but given to "good".
	if asn := s.RequestWork("good", 2, 5); len(asn) == 0 {
		t.Fatal("reliable client did not receive the retry")
	}
}

// TestReliabilityQueryDoesNotCreateClients pins the satellite fix: a
// read-only lookup must not register a client as a side effect (phantom
// clients would count toward the hasReliableClient retry gate).
func TestReliabilityQueryDoesNotCreateClients(t *testing.T) {
	s := newTestScheduler()
	if got := s.Reliability("ghost"); got != 1 {
		t.Fatalf("unknown client reliability = %v, want 1", got)
	}
	if len(s.clients) != 0 {
		t.Fatalf("Reliability registered %d client(s)", len(s.clients))
	}
	// The phantom must not hold the retry gate open either: with only a
	// queried-but-never-seen client, the floor gate has no reliable host
	// and opens for whoever asks.
	cfg := DefaultSchedulerConfig()
	cfg.ReliabilityFloor = 0.9
	s = NewScheduler(cfg)
	s.AddWorkunit(Workunit{Name: "wu"})
	s.Reliability("phantom") // must NOT register a reliable client
	for i := 0; i < 2; i++ {
		if asn := s.RequestWork("bad", 0, 1); len(asn) == 1 {
			s.CompleteResult(asn[0].ResultID, false, 0)
		}
	}
	if asn := s.RequestWork("bad", 1, 1); len(asn) == 0 {
		t.Fatal("phantom client from a reliability query gated the retry")
	}
}

// TestSetDefaultTimeoutAppliesToLaterIssues pins the one deadline rule:
// a result is due DefaultTimeout after it is sent, so a change leaves
// results already sent alone and reaches every later issue alike — of
// work queued before the change, of a reissue, and of new work.
func TestSetDefaultTimeoutAppliesToLaterIssues(t *testing.T) {
	s := newTestScheduler() // default timeout 100
	sent := s.AddWorkunit(Workunit{Name: "sent"})
	queued := s.AddWorkunit(Workunit{Name: "queued"})
	a := s.RequestWork("c1", 0, 1)
	if len(a) != 1 || a[0].WUID != sent || a[0].Deadline != 100 {
		t.Fatalf("first assignment = %+v", a)
	}
	s.SetDefaultTimeout(300)
	if got := s.Result(a[0].ResultID).Deadline; got != 100 {
		t.Errorf("result already sent moved its deadline to %v", got)
	}
	if b := s.RequestWork("c2", 10, 1); len(b) != 1 || b[0].WUID != queued || b[0].Deadline != 310 {
		t.Errorf("work queued before the change: assignment = %+v, want deadline 310", b)
	}
	if exp := s.ExpireTimeouts(101); !slices.Equal(exp, []int64{a[0].ResultID}) {
		t.Fatalf("expired %v at 101, want the first result alone", exp)
	}
	if r := s.RequestWork("c3", 120, 1); len(r) != 1 || r[0].WUID != sent || r[0].Deadline != 420 {
		t.Errorf("reissue = %+v, want deadline 420", r)
	}
	s.AddWorkunit(Workunit{Name: "new"})
	if n := s.RequestWork("c3", 130, 1); len(n) != 1 || n[0].Deadline != 430 {
		t.Errorf("new work = %+v, want deadline 430", n)
	}
	// Non-positive values are ignored.
	s.SetDefaultTimeout(-5)
	s.SetDefaultTimeout(0)
	if got := s.Config().DefaultTimeout; got != 300 {
		t.Errorf("non-positive SetDefaultTimeout changed the default to %v", got)
	}
}

func TestSetReliabilityFloorClamps(t *testing.T) {
	s := newTestScheduler()
	for in, want := range map[float64]float64{-0.5: 0, 0.3: 0.3, 1.7: 1} {
		s.SetReliabilityFloor(in)
		if got := s.Config().ReliabilityFloor; got != want {
			t.Errorf("SetReliabilityFloor(%v): floor = %v, want %v", in, got, want)
		}
	}
}

func TestDroppedClientDoesNotGateRetries(t *testing.T) {
	cfg := DefaultSchedulerConfig()
	cfg.ReliabilityFloor = 0.9
	s := NewScheduler(cfg)
	s.AddWorkunit(Workunit{Name: "wu"})
	// "bad" sinks its own reliability failing the workunit.
	for i := 0; i < 6; i++ {
		asn := s.RequestWork("bad", 0, 1)
		if len(asn) == 0 {
			break
		}
		s.CompleteResult(asn[0].ResultID, false, 0)
	}
	// "good" is known and reliable, so the retry is reserved for it...
	s.RequestWork("good", 0, 0)
	if asn := s.RequestWork("bad", 2, 5); len(asn) != 0 {
		t.Fatalf("retried workunit assigned past the gate: %v", asn)
	}
	// ...but once "good" leaves the project, withholding the retry would
	// starve it forever: the gate must open for the remaining client.
	s.DropClient("good")
	if asn := s.RequestWork("bad", 3, 5); len(asn) == 0 {
		t.Fatal("retry starved: every reliable client is gone but the gate stayed closed")
	}
}

func TestStickyFileAffinity(t *testing.T) {
	s := newTestScheduler()
	// c1 has shardA cached (from a previous epoch).
	s.NoteCached("c1", "shardA")
	s.AddWorkunit(Workunit{Name: "b", InputFiles: []string{"shardB"}})
	s.AddWorkunit(Workunit{Name: "a", InputFiles: []string{"shardA"}})
	// Despite FIFO order (b first), c1 should receive the shardA workunit
	// first because it caches that file.
	asn := s.RequestWork("c1", 0, 1)
	if len(asn) != 1 || asn[0].Name != "a" {
		t.Fatalf("sticky affinity ignored: %+v", asn)
	}
}

func TestReplicationFirstWins(t *testing.T) {
	s := newTestScheduler()
	s.AddWorkunit(Workunit{Name: "r", Replication: 2})
	a1 := s.RequestWork("c1", 0, 1)
	a2 := s.RequestWork("c2", 0, 1)
	if len(a1) != 1 || len(a2) != 1 || a1[0].WUID != a2[0].WUID {
		t.Fatalf("replication did not issue two copies: %v %v", a1, a2)
	}
	_, canonical1, _ := s.CompleteResult(a1[0].ResultID, true, 5)
	if !canonical1 {
		t.Fatal("first replica should be canonical")
	}
	_, canonical2, _ := s.CompleteResult(a2[0].ResultID, true, 6)
	if canonical2 {
		t.Fatal("second replica must not be canonical")
	}
	if s.Result(a2[0].ResultID).Status != ResAbandoned {
		t.Fatalf("second replica status = %v", s.Result(a2[0].ResultID).Status)
	}
}

func TestReplicaQueueDroppedAfterCompletion(t *testing.T) {
	s := newTestScheduler()
	s.AddWorkunit(Workunit{Name: "r", Replication: 3})
	a1 := s.RequestWork("c1", 0, 1)
	s.CompleteResult(a1[0].ResultID, true, 1)
	// The two still-queued replicas must be gone.
	if got := s.RequestWork("c2", 2, 5); len(got) != 0 {
		t.Fatalf("completed workunit still assignable: %v", got)
	}
	if s.PendingCount() != 0 {
		t.Fatalf("PendingCount = %d", s.PendingCount())
	}
}

func TestNextDeadline(t *testing.T) {
	s := newTestScheduler()
	if _, ok := s.NextDeadline(); ok {
		t.Fatal("empty scheduler has no deadline")
	}
	s.AddWorkunit(Workunit{Name: "a"})
	s.AddWorkunit(Workunit{Name: "b"})
	s.SetDefaultTimeout(30)
	s.RequestWork("c1", 0, 1)
	s.SetDefaultTimeout(20)
	s.RequestWork("c1", 0, 1)
	d, ok := s.NextDeadline()
	if !ok || d != 20 {
		t.Fatalf("NextDeadline = %v,%v want 20,true", d, ok)
	}
}

func TestInFlightCount(t *testing.T) {
	s := newTestScheduler()
	for i := 0; i < 3; i++ {
		s.AddWorkunit(Workunit{Name: "wu"})
	}
	asn := s.RequestWork("c1", 0, 2)
	if s.InFlight() != 2 {
		t.Fatalf("InFlight = %d, want 2", s.InFlight())
	}
	s.CompleteResult(asn[0].ResultID, true, 1)
	if s.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", s.InFlight())
	}
}

func TestStatusStrings(t *testing.T) {
	if WUPending.String() != "pending" || WUDone.String() != "done" {
		t.Fatal("workunit status strings wrong")
	}
	if ResTimedOut.String() != "timed-out" || ResAbandoned.String() != "abandoned" {
		t.Fatal("result status strings wrong")
	}
	if WorkunitStatus(99).String() == "" || ResultStatus(99).String() == "" {
		t.Fatal("unknown status must still render")
	}
}

// Property: under arbitrary sequences of assignment, completion and
// timeout, every workunit eventually reaches a terminal state once enough
// valid completions are fed, and the Done() invariant agrees with
// per-workunit status.
func TestLifecycleInvariantProperty(t *testing.T) {
	f := func(seedOps []uint8) bool {
		cfg := DefaultSchedulerConfig()
		cfg.DefaultTimeout = 10
		cfg.DefaultMaxErrors = 3
		cfg.ReliabilityFloor = 0
		s := NewScheduler(cfg)
		for i := 0; i < 5; i++ {
			s.AddWorkunit(Workunit{Name: "wu"})
		}
		now := 0.0
		var open []int64
		for _, op := range seedOps {
			now += float64(op%7) / 2
			switch op % 3 {
			case 0:
				for _, a := range s.RequestWork("c", now, 2) {
					open = append(open, a.ResultID)
				}
			case 1:
				if len(open) > 0 {
					id := open[0]
					open = open[1:]
					if s.Result(id).Status == ResInProgress {
						s.CompleteResult(id, op%2 == 0, now)
					}
				}
			case 2:
				s.ExpireTimeouts(now)
			}
			if s.Done() != naiveDone(s) {
				return false
			}
		}
		// Drain: give everything valid completions until done or failed.
		for round := 0; round < 100 && !s.Done(); round++ {
			now += 1
			for _, a := range s.RequestWork("c", now, 5) {
				s.CompleteResult(a.ResultID, true, now)
				if s.Done() != naiveDone(s) {
					return false
				}
			}
			s.ExpireTimeouts(now)
		}
		return s.Done() && naiveDone(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGarbageClientFirstCannotFailWorkunit is the deterministic form of
// the evil-first race: a client whose every upload is rejected registers
// before any honest one and, alone, takes every retry. Its rejections
// charge the workunit's budget once, so the workunit is still pending
// however often it tries; the honest client that arrives later gets the
// retry and completes it. Distinct clients still exhaust the budget.
func TestGarbageClientFirstCannotFailWorkunit(t *testing.T) {
	s := NewScheduler(DefaultSchedulerConfig())
	wu := s.AddWorkunit(Workunit{Name: "wu"})
	now := 0.0
	for i := 0; i < 5*DefaultSchedulerConfig().DefaultMaxErrors; i++ {
		asn := s.RequestWork("evil", now, 1)
		if len(asn) != 1 {
			t.Fatalf("round %d: the lone client got %d assignments, want the retry", i, len(asn))
		}
		if _, done, err := s.CompleteResult(asn[0].ResultID, false, now+1); err != nil || done {
			t.Fatalf("round %d: rejection returned done=%v err=%v", i, done, err)
		}
		now += 2
	}
	if w := s.Workunit(wu); w.Status() != WUPending || w.Errors() != 1 {
		t.Fatalf("after one client's rejections: status %v, errors %d; want pending, 1", w.Status(), w.Errors())
	}
	if s.Failures != 0 || s.Invalid != 5*DefaultSchedulerConfig().DefaultMaxErrors {
		t.Fatalf("Failures = %d, Invalid = %d", s.Failures, s.Invalid)
	}
	asn := s.RequestWork("honest", now, 1)
	if len(asn) != 1 || asn[0].WUID != wu {
		t.Fatalf("honest client assignment = %+v", asn)
	}
	if _, done, err := s.CompleteResult(asn[0].ResultID, true, now+1); err != nil || !done {
		t.Fatalf("honest completion: done=%v err=%v", done, err)
	}
	if !s.Done() {
		t.Fatal("job not done after the honest result")
	}

	// Rejections from distinct clients each charge the budget.
	cfg := DefaultSchedulerConfig()
	cfg.DefaultMaxErrors = 2
	s = NewScheduler(cfg)
	wu = s.AddWorkunit(Workunit{Name: "poison"})
	for i := 0; i <= cfg.DefaultMaxErrors; i++ {
		asn := s.RequestWork(fmt.Sprintf("c%d", i), float64(i), 1)
		if len(asn) != 1 {
			t.Fatalf("distinct client %d: no assignment", i)
		}
		s.CompleteResult(asn[0].ResultID, false, float64(i))
	}
	if st := s.Workunit(wu).Status(); st != WUFailed {
		t.Fatalf("after %d distinct rejections: status %v, want failed", cfg.DefaultMaxErrors+1, st)
	}
}
