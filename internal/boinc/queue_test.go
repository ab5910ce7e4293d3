package boinc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkPendq compares every index of the queue with a plain slice
// holding the same copies in enqueue order.
func checkPendq(t *testing.T, q *pendq, model []*Workunit) {
	t.Helper()
	if q.live != len(model) {
		t.Fatalf("live = %d, model holds %d", q.live, len(model))
	}
	if len(q.ents) > 2*q.live+compactSlack+1 {
		t.Fatalf("%d slots for %d live copies: compaction is not keeping up", len(q.ents), q.live)
	}
	// Global order, and the slot of every live copy.
	var slots []int
	for at := range q.ents {
		if at < q.head && q.ents[at].wu != nil {
			t.Fatalf("live copy at slot %d before head %d", at, q.head)
		}
		if q.ents[at].wu != nil {
			slots = append(slots, at)
		}
	}
	for i, at := range slots {
		if q.ents[at].wu != model[i] {
			t.Fatalf("copy %d is of %s, model says %s", i, q.ents[at].wu.Name, model[i].Name)
		}
	}
	if len(slots) > 0 && q.head != slots[0] {
		t.Fatalf("head = %d, first live slot is %d", q.head, slots[0])
	}
	// Per-workunit copy chains and per-bucket FIFOs, rebuilt from the
	// model and compared link by link.
	wantCopies := map[*Workunit][]int{}
	wantBucket := map[string][]int{}
	for i, wu := range model {
		wantCopies[wu] = append(wantCopies[wu], slots[i])
		k := fmt.Sprint(wu.InputFiles)
		wantBucket[k] = append(wantBucket[k], slots[i])
	}
	for wu, want := range wantCopies {
		var got []int
		for at := wu.qhead; at >= 0; at = q.ents[at].copy {
			got = append(got, at)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: copy chain %v, want %v", wu.Name, got, want)
		}
	}
	if len(q.buckets) != len(wantBucket) {
		t.Fatalf("%d buckets for %d distinct keys", len(q.buckets), len(wantBucket))
	}
	chained := 0
	for _, b := range q.byKey {
		for ; b != nil; b = b.chain {
			chained++
		}
	}
	if chained != len(q.buckets) {
		t.Fatalf("%d buckets reachable by key, %d listed", chained, len(q.buckets))
	}
	for i, b := range q.buckets {
		if b.slot != i {
			t.Fatalf("bucket %v believes it is at %d, is at %d", b.files, b.slot, i)
		}
		want := wantBucket[fmt.Sprint(b.files)]
		var got []int
		prev := -1
		for at := b.head; at >= 0; prev, at = at, q.ents[at].next {
			if q.ents[at].b != b || q.ents[at].prev != prev {
				t.Fatalf("bucket %v: slot %d has bucket %p prev %d, want %p %d", b.files, at, q.ents[at].b, q.ents[at].prev, b, prev)
			}
			got = append(got, at)
		}
		if !slices.Equal(got, want) || b.tail != prev {
			t.Fatalf("bucket %v: FIFO %v tail %d, want %v", b.files, got, b.tail, want)
		}
	}
}

// TestPendqMatchesSliceModel drives the queue alone — push, take the
// first copy, drop every copy, rebuild, with compaction between
// operations as the scheduler runs it — against a plain slice.
func TestPendqMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newPendq()
		wus := make([]*Workunit, 60)
		for i := range wus {
			files := []string{"model", fmt.Sprintf("shard%d", rng.Intn(7))}
			wus[i] = &Workunit{Name: fmt.Sprintf("wu%d", i), InputFiles: files, qhead: -1, filesHash: hashFiles(files)}
		}
		var model []*Workunit
		for step := 0; step < 6000; step++ {
			wu := wus[rng.Intn(len(wus))]
			// The mix drifts between filling and draining so the queue
			// repeatedly empties, regrows and compacts.
			fill := 30 + 40*((step/500)%2)
			switch op := rng.Intn(100); {
			case op < fill:
				q.push(wu)
				model = append(model, wu)
			case op < 90:
				if i := slices.Index(model, wu); i >= 0 {
					q.popFirst(wu)
					model = slices.Delete(model, i, i+1)
				}
			case op < 99:
				q.dropAll(wu)
				model = slices.DeleteFunc(model, func(m *Workunit) bool { return m == wu })
			default:
				q.rebuild()
			}
			q.compact()
			if step%20 == 0 {
				checkPendq(t, q, model)
			}
		}
		checkPendq(t, q, model)
	}
}

// TestRequestWorkScanIsSublinear counts, rather than times, the queue
// entries RequestWork examines under the paper policy: with the same 200
// input-file lists, a hundredfold deeper backlog must not even double it.
func TestRequestWorkScanIsSublinear(t *testing.T) {
	scanned := func(backlog int) float64 {
		cfg := DefaultSchedulerConfig()
		cfg.DefaultMaxErrors = 1 << 30
		cfg.ReliabilityFloor = 0
		s := NewScheduler(cfg)
		for i := 0; i < backlog; i++ {
			s.AddWorkunit(Workunit{Name: "wu", InputFiles: []string{fmt.Sprintf("shard_%03d", i%200), "model.json"}})
		}
		const requests = 200
		for i := 0; i < requests; i++ {
			client := fmt.Sprintf("c%d", i%20)
			s.NoteCached(client, fmt.Sprintf("shard_%03d", (i*7)%200))
			asn := s.RequestWork(client, float64(i), 4)
			if len(asn) != 4 {
				t.Fatalf("backlog %d: %d assignments", backlog, len(asn))
			}
			for _, a := range asn {
				s.CompleteResult(a.ResultID, false, float64(i)) // requeues: the backlog stands
			}
		}
		return float64(s.scanned) / requests
	}
	small, big := scanned(1000), scanned(100_000)
	t.Logf("entries examined per request: %.1f at 1k, %.1f at 100k", small, big)
	if big >= 2*small {
		t.Fatalf("entries examined per request grew from %.1f at 1k to %.1f at 100k", small, big)
	}
}

// TestExpireTimeoutsMatchesReferenceScan checks the deadline heap against
// the scan it replaced — every result ever issued, overdue ones in ID
// order — on a randomised mix of deadlines (ties included; the timeout
// changes before every request), completions and sweeps, and
// NextDeadline against the scan's minimum after every step.
func TestExpireTimeoutsMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := DefaultSchedulerConfig()
	cfg.DefaultMaxErrors = 1 << 30
	cfg.ReliabilityFloor = 0
	s := NewScheduler(cfg)
	for i := 0; i < 300; i++ {
		s.AddWorkunit(Workunit{Name: "wu"})
	}
	now := 0.0
	var open []int64
	expiredTotal := 0
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			s.SetDefaultTimeout(float64(5 * (1 + rng.Intn(6))))
			for _, a := range s.RequestWork(fmt.Sprintf("c%d", rng.Intn(5)), now, 1+rng.Intn(3)) {
				open = append(open, a.ResultID)
			}
		case op < 7:
			if len(open) > 0 {
				i := rng.Intn(len(open))
				if s.Result(open[i]).Status == ResInProgress {
					s.CompleteResult(open[i], rng.Intn(2) == 0, now)
				}
				open = slices.Delete(open, i, i+1)
			}
		default:
			now += float64(rng.Intn(4))
			var want []int64
			for id, res := range s.results {
				if res.Status == ResInProgress && now > res.Deadline {
					want = append(want, id)
				}
			}
			slices.Sort(want)
			got := s.ExpireTimeouts(now)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d now %v: expired %v, scan says %v", step, now, got, want)
			}
			expiredTotal += len(got)
		}
		wantD, wantOK := 0.0, false
		for _, res := range s.results {
			if res.Status == ResInProgress && (!wantOK || res.Deadline < wantD) {
				wantD, wantOK = res.Deadline, true
			}
		}
		if d, ok := s.NextDeadline(); d != wantD || ok != wantOK {
			t.Fatalf("step %d: NextDeadline = %v,%v, scan says %v,%v", step, d, ok, wantD, wantOK)
		}
		if len(s.deadlines) > 2*s.inflight+compactSlack+1 {
			t.Fatalf("step %d: %d heap entries for %d results in flight", step, len(s.deadlines), s.inflight)
		}
	}
	if expiredTotal == 0 {
		t.Fatal("nothing ever expired")
	}
}

// TestIndexStateBoundedAtSteadyState runs 50 000 add → assign → complete
// cycles at a constant backlog, with input-file names that move on the
// way an epoch's shard names do, and checks that everything the scheduler
// keeps per queued or in-flight copy is bounded by the backlog rather
// than by the workunits ever seen.
func TestIndexStateBoundedAtSteadyState(t *testing.T) {
	const backlog, cycles = 100, 50_000
	cfg := DefaultSchedulerConfig()
	cfg.DefaultTimeout = 1e9 // nothing expires: finished results leave the heap only by its sweep
	s := NewScheduler(cfg)
	add := func(i int) {
		s.AddWorkunit(Workunit{Name: "wu", Replication: 2,
			InputFiles: []string{"model", fmt.Sprintf("epoch%d_shard%d", i/500, i%10)}})
	}
	for i := 0; i < backlog; i++ {
		add(i)
	}
	for i := 0; i < cycles; i++ {
		now := float64(i)
		asn := s.RequestWork(fmt.Sprintf("c%d", i%7), now, 1)
		if len(asn) != 1 {
			t.Fatalf("cycle %d: %d assignments", i, len(asn))
		}
		if _, done, err := s.CompleteResult(asn[0].ResultID, true, now); err != nil || !done {
			t.Fatalf("cycle %d: done=%v err=%v", i, done, err)
		}
		add(backlog + i)
	}
	linked := 0
	for _, wu := range s.wus {
		if wu.terminal() && (wu.assignedTo != nil || wu.qhead >= 0 || wu.queued != 0) {
			t.Fatalf("workunit %d is %v but still holds index state", wu.ID, wu.status)
		}
		if wu.assignedTo != nil || wu.qhead >= 0 {
			linked++
		}
	}
	if s.open != backlog || linked > backlog {
		t.Fatalf("%d workunits open, %d holding index state, backlog %d", s.open, linked, backlog)
	}
	for name, n := range map[string]int{
		"queue slots": cap(s.q.ents), "buckets": len(s.q.buckets), "bucket keys": len(s.q.byKey),
		"deadline heap": cap(s.deadlines), "candidate scratch": cap(s.candBuf), "merge scratch": cap(s.mergeBuf),
	} {
		if n > 16*backlog {
			t.Errorf("%s: %d after %d cycles at backlog %d", name, n, cycles, backlog)
		}
	}
}
