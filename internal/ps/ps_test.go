package ps

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"vcdl/internal/opt"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

func newTestServer(alpha float64) *Server {
	return NewServer(0, store.NewStrong(), opt.Constant{V: alpha})
}

func TestPublishAndCurrent(t *testing.T) {
	s := newTestServer(0.95)
	if err := s.Publish([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("Current = %v", got)
	}
}

func TestAssimilateEquationOne(t *testing.T) {
	s := newTestServer(0.75)
	s.Publish([]float64{4, 8})
	if err := s.Assimilate([]float64{0, 4}, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Current()
	// 0.75*4 + 0.25*0 = 3 ; 0.75*8 + 0.25*4 = 7
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("Ws = %v, want [3 7]", got)
	}
	if s.Assimilations() != 1 {
		t.Fatalf("Assimilations = %d", s.Assimilations())
	}
}

// TestRecursionMatchesEquationTwo checks the closed form of Equation 2:
// applying Equation 1 over nt returning subtasks gives
// Ws,e = α^nt·Ws,e−1 + (1−α)·Σ_j α^(nt−j)·Wc,j.
func TestRecursionMatchesEquationTwo(t *testing.T) {
	const alpha = 0.9
	const nt = 5
	s := newTestServer(alpha)
	w0 := 10.0
	s.Publish([]float64{w0})
	clients := []float64{1, 2, 3, 4, 5}
	for _, wc := range clients {
		if err := s.Assimilate([]float64{wc}, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.Current()
	want := math.Pow(alpha, nt) * w0
	for j := 1; j <= nt; j++ {
		want += (1 - alpha) * math.Pow(alpha, float64(nt-j)) * clients[j-1]
	}
	if math.Abs(got[0]-want) > 1e-12 {
		t.Fatalf("Ws = %v, Equation 2 predicts %v", got[0], want)
	}
}

func TestAssimilateFirstWriteAdoptsClient(t *testing.T) {
	s := newTestServer(0.95)
	// No Publish: the first client copy becomes the server copy.
	if err := s.Assimilate([]float64{7, 7}, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Current()
	if got[0] != 7 || got[1] != 7 {
		t.Fatalf("Ws = %v, want [7 7]", got)
	}
}

func TestAssimilateAlphaOutOfRange(t *testing.T) {
	s := NewServer(0, store.NewStrong(), opt.Constant{V: 1.5})
	s.Publish([]float64{1})
	if err := s.Assimilate([]float64{2}, 1); err == nil {
		t.Fatal("alpha > 1 must error")
	}
}

func TestAlphaScheduleUsesEpoch(t *testing.T) {
	s := NewServer(0, store.NewStrong(), opt.EpochFraction{})
	s.Publish([]float64{0})
	// Epoch 1: α = 0.5 → Ws = 0.5*0 + 0.5*10 = 5.
	s.Assimilate([]float64{10}, 1)
	got, _ := s.Current()
	if got[0] != 5 {
		t.Fatalf("epoch 1: Ws = %v, want 5", got[0])
	}
	// Epoch 9: α = 0.9 → Ws = 0.9*5 + 0.1*10 = 5.5.
	s.Assimilate([]float64{10}, 9)
	got, _ = s.Current()
	if math.Abs(got[0]-5.5) > 1e-12 {
		t.Fatalf("epoch 9: Ws = %v, want 5.5", got[0])
	}
}

func TestGroupRoundRobin(t *testing.T) {
	g := NewGroup(3, store.NewStrong(), opt.Constant{V: 0.95})
	if g.Size() != 3 {
		t.Fatalf("Size = %d", g.Size())
	}
	ids := []int{g.Pick().ID, g.Pick().ID, g.Pick().ID, g.Pick().ID}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("Pick order %v, want %v", ids, want)
		}
	}
}

func TestGroupSharesOneCopy(t *testing.T) {
	g := NewGroup(3, store.NewStrong(), opt.Constant{V: 0.5})
	g.Publish([]float64{0})
	// Three different servers each assimilate 8: Ws = 0→4→6→7.
	for i := 0; i < 3; i++ {
		if err := g.Pick().Assimilate([]float64{8}, 1); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := g.Current()
	if got[0] != 7 {
		t.Fatalf("Ws = %v, want 7 (servers must share one copy)", got[0])
	}
	if g.TotalAssimilations() != 3 {
		t.Fatalf("TotalAssimilations = %d", g.TotalAssimilations())
	}
}

func TestGroupConcurrentAssimilationStrongStore(t *testing.T) {
	// With a strong store, concurrent assimilations through multiple
	// servers must all land (serializable RMW).
	st := store.NewStrong()
	g := NewGroup(5, st, opt.Constant{V: 0.9})
	g.Publish([]float64{1})
	var wg sync.WaitGroup
	const updates = 100
	for i := 0; i < updates; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Pick().Assimilate([]float64{1}, 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Every update with Wc=Ws=1 keeps Ws=1; what matters is update count.
	if st.Stats().Updates != updates {
		t.Fatalf("store saw %d updates, want %d", st.Stats().Updates, updates)
	}
	got, _ := g.Current()
	if math.Abs(got[0]-1) > 1e-12 {
		t.Fatalf("Ws = %v, want 1", got[0])
	}
}

func TestEventualStoreMayLoseAssimilations(t *testing.T) {
	// The eventual store tolerates lost updates; the server copy must
	// remain decodable and the loss visible in stats, matching §III-D.
	st := store.NewEventual(1, 0, 3)
	g := NewGroup(3, st, opt.Constant{V: 0.5})
	g.Publish([]float64{0})
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Pick().Assimilate([]float64{8}, 1)
		}()
	}
	wg.Wait()
	got, err := g.Current()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] < 0 || got[0] > 8 {
		t.Fatalf("Ws = %v outside [0,8]", got[0])
	}
}

func TestEpochTrackerAggregation(t *testing.T) {
	tr := NewEpochTrackerAt(3, 1)
	if _, done := tr.Record(0.5); done {
		t.Fatal("epoch closed early")
	}
	if _, done := tr.Record(0.7); done {
		t.Fatal("epoch closed early")
	}
	sum, done := tr.Record(0.6)
	if !done {
		t.Fatal("epoch did not close")
	}
	if math.Abs(sum.Mean-0.6) > 1e-12 || sum.Lo != 0.5 || sum.Hi != 0.7 || sum.Samples != 3 {
		t.Fatalf("summary = %+v", sum)
	}
	if tr.Epoch() != 2 {
		t.Fatalf("Epoch = %d, want 2", tr.Epoch())
	}
	if len(tr.Completed()) != 1 {
		t.Fatal("completed epoch not recorded")
	}
}

func TestStopCriterion(t *testing.T) {
	c := StopCriterion{TargetAccuracy: 0.73, MaxEpochs: 40}
	if c.ShouldStop(EpochSummary{Epoch: 5, Mean: 0.5}) {
		t.Fatal("should not stop yet")
	}
	if !c.ShouldStop(EpochSummary{Epoch: 5, Mean: 0.74}) {
		t.Fatal("should stop on accuracy")
	}
	if !c.ShouldStop(EpochSummary{Epoch: 40, Mean: 0.1}) {
		t.Fatal("should stop on epoch budget")
	}
	unbounded := StopCriterion{}
	if unbounded.ShouldStop(EpochSummary{Epoch: 1000, Mean: 1}) {
		t.Fatal("zero criterion must never stop")
	}
}

// Property: assimilation is a convex combination, so Ws stays inside the
// [min, max] envelope of the initial copy and all client copies.
func TestAssimilateConvexProperty(t *testing.T) {
	f := func(w0 float64, clients []float64, alphaRaw uint8) bool {
		if math.IsNaN(w0) || math.IsInf(w0, 0) {
			return true
		}
		alpha := float64(alphaRaw) / 255
		lo, hi := w0, w0
		s := NewServer(0, store.NewStrong(), opt.Constant{V: alpha})
		s.Publish([]float64{w0})
		for _, wc := range clients {
			if math.IsNaN(wc) || math.IsInf(wc, 0) {
				continue
			}
			s.Assimilate([]float64{wc}, 1)
			if wc < lo {
				lo = wc
			}
			if wc > hi {
				hi = wc
			}
		}
		got, err := s.Current()
		if err != nil {
			return false
		}
		const eps = 1e-9
		return got[0] >= lo-eps && got[0] <= hi+eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRawCodecInterop(t *testing.T) {
	// ps relies on wire.EncodeRaw/DecodeRawInto round-tripping exactly.
	params := []float64{1.5, -2.25, 0, math.Pi}
	back, err := wire.DecodeRawInto(nil, wire.EncodeRaw(params))
	if err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if params[i] != back[i] {
			t.Fatal("raw codec mismatch")
		}
	}
}
