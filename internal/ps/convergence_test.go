package ps

import (
	"math"
	"testing"
	"testing/quick"

	"vcdl/internal/opt"
	"vcdl/internal/store"
)

// TestGeometricContraction validates the paper's convergence argument
// around Equation 2: if every client returns the same copy W*, then after
// an epoch of nt assimilations the server error contracts by exactly
// α^nt:
//
//	Ws,e − W* = α^nt · (Ws,e−1 − W*)
func TestGeometricContraction(t *testing.T) {
	const (
		alpha = 0.95
		nt    = 50
		wStar = 3.0
	)
	s := NewServer(0, store.NewStrong(), opt.Constant{V: alpha})
	s.Publish([]float64{10})
	prevErr := 10 - wStar
	for epoch := 1; epoch <= 5; epoch++ {
		for j := 0; j < nt; j++ {
			if err := s.Assimilate([]float64{wStar}, epoch); err != nil {
				t.Fatal(err)
			}
		}
		cur, _ := s.Current()
		gotErr := cur[0] - wStar
		wantErr := prevErr * math.Pow(alpha, nt)
		if math.Abs(gotErr-wantErr) > 1e-9*math.Max(1, math.Abs(wantErr)) {
			t.Fatalf("epoch %d: error %v, Equation 2 predicts %v", epoch, gotErr, wantErr)
		}
		prevErr = gotErr
	}
}

// TestVarScheduleStillContracts: with the Var schedule α rises toward 1,
// so per-epoch contraction weakens but never reverses — the server error
// is monotonically decreasing whenever clients agree.
func TestVarScheduleStillContracts(t *testing.T) {
	s := NewServer(0, store.NewStrong(), opt.EpochFraction{})
	s.Publish([]float64{10})
	const wStar = -2.0
	prev := math.Abs(10 - wStar)
	for epoch := 1; epoch <= 10; epoch++ {
		for j := 0; j < 20; j++ {
			s.Assimilate([]float64{wStar}, epoch)
		}
		cur, _ := s.Current()
		got := math.Abs(cur[0] - wStar)
		if got < 1e-12 {
			return // converged to floating-point noise
		}
		if got >= prev {
			t.Fatalf("epoch %d: error %v did not shrink from %v", epoch, got, prev)
		}
		prev = got
	}
}

// Property: for any α in (0,1) and any epoch length, the contraction
// factor after nt same-target assimilations is α^nt within floating-point
// tolerance.
func TestContractionFactorProperty(t *testing.T) {
	f := func(aRaw uint8, ntRaw uint8) bool {
		alpha := 0.01 + 0.98*float64(aRaw)/255
		nt := int(ntRaw)%30 + 1
		s := NewServer(0, store.NewStrong(), opt.Constant{V: alpha})
		s.Publish([]float64{1})
		for j := 0; j < nt; j++ {
			s.Assimilate([]float64{0}, 1)
		}
		cur, err := s.Current()
		if err != nil {
			return false
		}
		want := math.Pow(alpha, float64(nt))
		return math.Abs(cur[0]-want) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the epoch tracker closes exactly every `subtasks` records, for
// any record stream.
func TestEpochTrackerClosureProperty(t *testing.T) {
	f := func(nRaw uint8, values []float64) bool {
		n := int(nRaw)%10 + 1
		tr := NewEpochTrackerAt(n, 1)
		for i, v := range values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0.5
			}
			_, done := tr.Record(v)
			if done != ((i+1)%n == 0) {
				return false
			}
		}
		return len(tr.Completed()) == len(values)/n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
