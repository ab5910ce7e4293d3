package boinc

import (
	"fmt"
	"testing"
)

// TestShardedIDStriping checks the routing contract the sharded upload
// path relies on: shard i of n only ever issues workunit and result IDs
// ≡ i (mod n), so a result ID alone identifies its owning shard.
func TestShardedIDStriping(t *testing.T) {
	const n = 4
	ss := NewShardedScheduler(DefaultSchedulerConfig(), n)
	wuShard := make(map[int64]int)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("wu-%d", i)
		id := ss.AddWorkunit(Workunit{Name: name})
		want := int(stripeHash("", name) % n)
		if got := int(id % n); got != want {
			t.Fatalf("wu %q: id %d ≡ %d (mod %d), owning shard is %d", name, id, got, n, want)
		}
		wuShard[id] = want
	}
	seen := make(map[int64]bool)
	for c := 0; c < 8; c++ {
		for _, asn := range ss.RequestWork(fmt.Sprintf("c%d", c), 1, 8, nil) {
			if seen[asn.ResultID] {
				t.Fatalf("result %d issued twice", asn.ResultID)
			}
			seen[asn.ResultID] = true
			if int(asn.ResultID%n) != wuShard[asn.WUID] {
				t.Fatalf("result %d for wu %d crossed shards: result shard %d, wu shard %d",
					asn.ResultID, asn.WUID, asn.ResultID%n, wuShard[asn.WUID])
			}
			// The ID must route back to a shard that knows the result.
			known := false
			ss.ForResult(asn.ResultID, func(s *Scheduler) { known = s.Result(asn.ResultID) != nil })
			if !known {
				t.Fatalf("result %d not found on its residue-class shard", asn.ResultID)
			}
		}
	}
	if len(seen) != 64 {
		t.Fatalf("drained %d assignments, want 64", len(seen))
	}
}

// TestShardedSingleShardEquivalence pins the compatibility contract: at
// one shard the sharded wrapper issues exactly the historical ID
// sequence and assignment order of a bare Scheduler.
func TestShardedSingleShardEquivalence(t *testing.T) {
	cfg := DefaultSchedulerConfig()
	bare := NewScheduler(cfg)
	ss := NewShardedScheduler(cfg, 1)
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("wu-%d", i)
		a := bare.AddWorkunit(Workunit{Name: name})
		b := ss.AddWorkunit(Workunit{Name: name})
		if a != b {
			t.Fatalf("wu %d: bare id %d, sharded id %d", i, a, b)
		}
	}
	for round := 0; round < 4; round++ {
		id := fmt.Sprintf("c%d", round)
		bare.ExpireTimeouts(1)
		want := bare.RequestWork(id, 1, 3)
		got := ss.RequestWork(id, 1, 3, nil)
		if len(want) != len(got) {
			t.Fatalf("round %d: bare %d assignments, sharded %d", round, len(want), len(got))
		}
		for i := range want {
			if want[i].ResultID != got[i].ResultID || want[i].WUID != got[i].WUID {
				t.Fatalf("round %d asn %d: bare (res %d, wu %d), sharded (res %d, wu %d)",
					round, i, want[i].ResultID, want[i].WUID, got[i].ResultID, got[i].WUID)
			}
		}
	}
}

// summaryInFlight returns one client's merged in-flight count (-1 when
// the listing does not know the client).
func summaryInFlight(sums []ClientSummary, id string) int {
	for _, s := range sums {
		if s.ID == id {
			return s.InFlight
		}
	}
	return -1
}

// TestShardedAggregates exercises the merged cross-shard views: summed
// stats and merged client summaries.
func TestShardedAggregates(t *testing.T) {
	ss := NewShardedScheduler(DefaultSchedulerConfig(), 4)
	for i := 0; i < 32; i++ {
		ss.AddWorkunit(Workunit{Name: fmt.Sprintf("wu-%d", i)})
	}
	asns := ss.RequestWork("alice", 1, 5, nil)
	if len(asns) != 5 {
		t.Fatalf("alice got %d assignments, want 5", len(asns))
	}
	if got := summaryInFlight(ss.ClientSummaries(), "alice"); got != 5 {
		t.Fatalf("alice in-flight = %d, want 5", got)
	}
	bsns := ss.RequestWork("bob", 1, 3, nil)
	if len(bsns) != 3 {
		t.Fatalf("bob got %d assignments, want 3", len(bsns))
	}
	st := ss.Stats()
	if st.Issued != 8 || st.InFlight != 8 || st.Clients != 2 {
		t.Fatalf("stats = issued %d inflight %d clients %d, want 8/8/2", st.Issued, st.InFlight, st.Clients)
	}
	if st.Pending != 32-8 {
		t.Fatalf("stats pending = %d, want %d", st.Pending, 32-8)
	}
	// Complete alice's work: her merged in-flight must drain back to zero.
	for _, asn := range asns {
		ss.ForResult(asn.ResultID, func(s *Scheduler) {
			if _, _, err := s.CompleteResult(asn.ResultID, true, 2); err != nil {
				t.Fatalf("complete %d: %v", asn.ResultID, err)
			}
		})
	}
	sums := ss.ClientSummaries()
	if got := summaryInFlight(sums, "alice"); got != 0 {
		t.Fatalf("alice in-flight after completion = %d, want 0", got)
	}
	if len(sums) != 2 || sums[0].ID != "alice" || sums[1].ID != "bob" {
		t.Fatalf("summaries = %+v, want [alice bob]", sums)
	}
	if sums[1].InFlight != 3 {
		t.Fatalf("bob summary in-flight = %d, want 3", sums[1].InFlight)
	}
	if st := ss.Stats(); st.Completions != 5 || st.InFlight != 3 {
		t.Fatalf("stats after completions = %+v", st)
	}
}

// TestShardedDepthRewrite checks that sinks attached via AddSink see
// fleet-wide Pending/InFlight totals, not one shard's slice.
func TestShardedDepthRewrite(t *testing.T) {
	ss := NewShardedScheduler(DefaultSchedulerConfig(), 4)
	var last SchedEvent
	ss.AddSink(sinkFunc(func(e SchedEvent) { last = e }))
	for i := 0; i < 16; i++ {
		ss.AddWorkunit(Workunit{Name: fmt.Sprintf("wu-%d", i)})
	}
	// 16 pending copies spread over 4 shards: the final EvCreated event
	// must report the cross-shard total, not its own shard's count.
	if last.Kind != EvCreated || last.Pending != 16 {
		t.Fatalf("last created event pending = %d (kind %d), want 16", last.Pending, last.Kind)
	}
	ss.RequestWork("alice", 1, 6, nil)
	if last.Kind != EvAssigned || last.InFlight != 6 {
		t.Fatalf("last assigned event inflight = %d (kind %d), want 6", last.InFlight, last.Kind)
	}
	if last.Pending != 10 {
		t.Fatalf("last assigned event pending = %d, want 10", last.Pending)
	}
}
