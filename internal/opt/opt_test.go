package opt

import (
	"math"
	"testing"
	"testing/quick"

	"vcdl/internal/tensor"
)

func single(v float64) []*tensor.Tensor {
	return []*tensor.Tensor{tensor.FromSlice([]float64{v}, 1)}
}

func TestAdamMisalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned Step did not panic")
		}
	}()
	NewAdam(0.1).Step(single(1), nil)
}

func TestAdamSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size-mismatched Step did not panic")
		}
	}()
	NewAdam(0.1).Step(single(1), []*tensor.Tensor{tensor.New(2)})
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// With bias correction, Adam's first step magnitude ≈ lr regardless of
	// gradient scale.
	for _, scale := range []float64{1e-4, 1.0, 1e4} {
		p := single(0)
		g := single(scale)
		NewAdam(0.001).Step(p, g)
		if math.Abs(math.Abs(p[0].Data[0])-0.001) > 1e-6 {
			t.Fatalf("first Adam step for grad %v = %v, want ≈0.001", scale, p[0].Data[0])
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(x) = (x-3)^2 ; gradient 2(x-3).
	p := single(-5)
	a := NewAdam(0.1)
	g := single(0)
	for i := 0; i < 2000; i++ {
		g[0].Data[0] = 2 * (p[0].Data[0] - 3)
		a.Step(p, g)
	}
	if math.Abs(p[0].Data[0]-3) > 1e-3 {
		t.Fatalf("Adam converged to %v, want 3", p[0].Data[0])
	}
}

func TestAdamStatePerSlot(t *testing.T) {
	// Two parameters with different gradients must evolve independently.
	p := []*tensor.Tensor{tensor.FromSlice([]float64{0, 0}, 2)}
	g := []*tensor.Tensor{tensor.FromSlice([]float64{1, -1}, 2)}
	a := NewAdam(0.01)
	for i := 0; i < 10; i++ {
		a.Step(p, g)
	}
	if p[0].Data[0] >= 0 || p[0].Data[1] <= 0 {
		t.Fatalf("Adam slots not independent: %v", p[0].Data)
	}
	if math.Abs(p[0].Data[0]+p[0].Data[1]) > 1e-12 {
		t.Fatalf("symmetric gradients should give symmetric params: %v", p[0].Data)
	}
}

func TestConstantSchedule(t *testing.T) {
	s := Constant{0.95}
	for _, e := range []int{1, 10, 1000} {
		if s.At(e) != 0.95 {
			t.Fatalf("Constant.At(%d) = %v", e, s.At(e))
		}
	}
}

// TestEpochFractionMatchesPaper checks the paper's Var schedule: α rises
// from 0.5 (e=1) to ≈0.98 (e=40).
func TestEpochFractionMatchesPaper(t *testing.T) {
	s := EpochFraction{}
	if s.At(1) != 0.5 {
		t.Fatalf("At(1) = %v, want 0.5", s.At(1))
	}
	if math.Abs(s.At(40)-40.0/41.0) > 1e-15 {
		t.Fatalf("At(40) = %v, want %v", s.At(40), 40.0/41.0)
	}
	if s.At(40) < 0.97 || s.At(40) > 0.99 {
		t.Fatalf("At(40) = %v, want ≈0.98", s.At(40))
	}
	if s.At(0) != 0.5 {
		t.Fatalf("At(0) should clamp to epoch 1, got %v", s.At(0))
	}
}

// Property: EpochFraction is monotonically increasing and bounded by 1.
func TestEpochFractionMonotoneProperty(t *testing.T) {
	s := EpochFraction{}
	f := func(e uint8) bool {
		x := int(e) + 1
		return s.At(x) < s.At(x+1) && s.At(x+1) < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
