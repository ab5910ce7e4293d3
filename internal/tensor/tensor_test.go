package tensor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3, 4)
	if x.Size() != 24 {
		t.Fatalf("Size = %d, want 24", x.Size())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
	for i, v := range x.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewNegativeDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1, 2)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At(2,1) = %v, want 7.5", got)
	}
	if got := x.Data[2*4+1]; got != 7.5 {
		t.Fatalf("flat layout wrong: Data[9] = %v", got)
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At(2,0) did not panic")
		}
	}()
	x.At(2, 0)
}

func TestFromSliceSharesData(t *testing.T) {
	d := []float64{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	x.Set(9, 0, 0)
	if d[0] != 9 {
		t.Fatal("FromSlice should alias the provided slice")
	}
}

func TestFromSliceWrongLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIndependence(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone must not alias the original")
	}
}

func TestReshapeInference(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, -1)
	if y.Dim(0) != 3 || y.Dim(1) != 4 {
		t.Fatalf("Reshape(3,-1) shape = %v, want [3 4]", y.Shape())
	}
	y.Set(5, 0, 0)
	if x.At(0, 0) != 5 {
		t.Fatal("Reshape must be a view over the same data")
	}
}

func TestReshapeBadSizePanics(t *testing.T) {
	x := New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape to incompatible size did not panic")
		}
	}()
	x.Reshape(4, 2)
}

func TestAddInto(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3}, 3)
	b := FromSlice([]float64{10, 20, 30}, 3)
	if got := AddInto(New(3), a, b).Data; got[0] != 11 || got[2] != 33 {
		t.Fatalf("AddInto = %v", got)
	}
	if got := AddInto(a, a, b).Data; got[0] != 11 || got[2] != 33 {
		t.Fatalf("AddInto aliasing its operand = %v", got)
	}
}

func TestLerpMatchesEquationOne(t *testing.T) {
	// Ws ← αWs + (1−α)Wc with α = 0.75.
	ws := FromSlice([]float64{4, 8}, 2)
	wc := FromSlice([]float64{0, 4}, 2)
	ws.Lerp(0.75, wc)
	if ws.Data[0] != 3 || ws.Data[1] != 7 {
		t.Fatalf("Lerp = %v, want [3 7]", ws.Data)
	}
}

func TestAxpy(t *testing.T) {
	x := FromSlice([]float64{1, 1}, 2)
	y := FromSlice([]float64{2, 3}, 2)
	x.Axpy(0.5, y)
	if x.Data[0] != 2 || x.Data[1] != 2.5 {
		t.Fatalf("Axpy = %v", x.Data)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float64{3, -1, 4, 1}, 4)
	if x.Sum() != 7 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.Mean() != 1.75 {
		t.Fatalf("Mean = %v", x.Mean())
	}
	if x.Max() != 4 || x.Min() != -1 {
		t.Fatalf("Max/Min = %v/%v", x.Max(), x.Min())
	}
	if x.ArgMax() != 2 {
		t.Fatalf("ArgMax = %d", x.ArgMax())
	}
}

func TestSumRowsAndAddRowVector(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	s := SumRowsInto(New(3), m)
	want := []float64{5, 7, 9}
	for i := range want {
		if s.Data[i] != want[i] {
			t.Fatalf("SumRowsInto = %v, want %v", s.Data, want)
		}
	}
	v := FromSlice([]float64{10, 20, 30}, 3)
	m.AddRowVector(v)
	if m.At(0, 0) != 11 || m.At(1, 2) != 36 {
		t.Fatalf("AddRowVector result = %v", m.Data)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	c := MatMulInto(New(2, 2), a, b)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMul with mismatched shapes did not panic")
		}
	}()
	MatMulInto(New(2, 2), New(2, 3), New(4, 2))
}

// TestMatMulParallelMatchesSerial checks the goroutine fan-out path against
// the single-threaded kernel on a product large enough to trigger it.
func TestMatMulParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(130, 70)
	b := New(70, 90)
	a.RandNormal(0, 1, rng)
	b.RandNormal(0, 1, rng)
	got := MatMulInto(New(130, 90), a, b)
	want := New(130, 90)
	matMulRange(want.Data, a.Data, b.Data, 0, 130, 70, 90, false)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
			t.Fatalf("parallel MatMul differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulTransAMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(7, 5)
	b := New(7, 6)
	a.RandNormal(0, 1, rng)
	b.RandNormal(0, 1, rng)
	at := New(5, 7)
	for i := 0; i < 7; i++ {
		for j := 0; j < 5; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	got := MatMulTransAInto(New(5, 6), a, b)
	want := MatMulInto(New(5, 6), at, b)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
			t.Fatalf("MatMulTransA differs at %d", i)
		}
	}
}

func TestMatMulTransBMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(4, 5)
	b := New(6, 5)
	a.RandNormal(0, 1, rng)
	b.RandNormal(0, 1, rng)
	bt := New(5, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 5; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	got := MatMulTransBInto(New(4, 6), a, b)
	want := MatMulInto(New(4, 6), a, bt)
	for i := range want.Data {
		if !almostEqual(got.Data[i], want.Data[i], 1e-9) {
			t.Fatalf("MatMulTransB differs at %d", i)
		}
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is just a reshape.
	d, err := NewConvDims(1, 2, 3, 3, 4, 1, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := New(1, 2, 3, 3)
	for i := range x.Data {
		x.Data[i] = float64(i)
	}
	cols := im2col(x, d)
	if cols.Dim(0) != 9 || cols.Dim(1) != 2 {
		t.Fatalf("cols shape = %v", cols.Shape())
	}
	// Row (y,x) should contain pixel (y,x) of each channel.
	if cols.At(0, 0) != 0 || cols.At(0, 1) != 9 {
		t.Fatalf("cols row 0 = %v %v", cols.At(0, 0), cols.At(0, 1))
	}
}

func TestIm2ColPadding(t *testing.T) {
	d, err := NewConvDims(1, 1, 2, 2, 1, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	cols := im2col(x, d)
	if cols.Dim(0) != 4 || cols.Dim(1) != 9 {
		t.Fatalf("cols shape = %v", cols.Shape())
	}
	// Output position (0,0): 3x3 window centered at (0,0), so the corners
	// touching the image are (0,0)=1,(0,1)=2,(1,0)=3,(1,1)=4 at kernel
	// offsets (1,1),(1,2),(2,1),(2,2).
	row := cols.Data[:9]
	want := []float64{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("padded row = %v, want %v", row, want)
		}
	}
}

func TestNewConvDimsErrors(t *testing.T) {
	if _, err := NewConvDims(1, 1, 2, 2, 1, 5, 5, 1, 0); err == nil {
		t.Fatal("kernel larger than input without pad should error")
	}
	if _, err := NewConvDims(1, 1, 4, 4, 1, 3, 3, 0, 0); err == nil {
		t.Fatal("stride 0 should error")
	}
	if _, err := NewConvDims(1, 1, 4, 4, 1, 3, 3, 1, -1); err == nil {
		t.Fatal("negative pad should error")
	}
}

// TestCol2ImAdjoint verifies <Im2ColInto(x), y> == <x, Col2ImInto(y)>, the defining
// property of an adjoint pair, on random data.
func TestCol2ImAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, err := NewConvDims(2, 3, 5, 5, 4, 3, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := New(2, 3, 5, 5)
	x.RandNormal(0, 1, rng)
	cols := im2col(x, d)
	y := New(cols.Shape()...)
	y.RandNormal(0, 1, rng)
	lhs := Dot(cols, y)
	rhs := Dot(x, col2im(y, d))
	if !almostEqual(lhs, rhs, 1e-9*math.Max(1, math.Abs(lhs))) {
		t.Fatalf("adjoint property violated: %v vs %v", lhs, rhs)
	}
}

func TestHeNormalStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := New(20000)
	x.HeNormal(50, rng)
	mean := x.Mean()
	if math.Abs(mean) > 0.01 {
		t.Fatalf("He-normal mean = %v, want ~0", mean)
	}
	variance := 0.0
	for _, v := range x.Data {
		variance += (v - mean) * (v - mean)
	}
	variance /= float64(x.Size())
	if math.Abs(variance-2.0/50) > 0.005 {
		t.Fatalf("He-normal variance = %v, want ~%v", variance, 2.0/50)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := New(3, 4, 5)
	x.RandNormal(0, 3, rng)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var y Tensor
	if _, err := y.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !x.SameShape(&y) {
		t.Fatalf("shape mismatch after round trip: %v vs %v", x.Shape(), y.Shape())
	}
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestReadFromBadMagic(t *testing.T) {
	var y Tensor
	if _, err := y.ReadFrom(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReadFromTruncated(t *testing.T) {
	x := New(10, 10)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	var y Tensor
	if _, err := y.ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestAllFinite(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3}, 3)
	if !x.AllFinite() {
		t.Fatal("finite tensor reported non-finite")
	}
	x.Data[1] = math.NaN()
	if x.AllFinite() {
		t.Fatal("NaN not detected")
	}
	x.Data[1] = math.Inf(1)
	if x.AllFinite() {
		t.Fatal("Inf not detected")
	}
}

// Property: Lerp with alpha=1 leaves the server copy unchanged, alpha=0
// replaces it entirely — the two endpoints of VC-ASGD behaviour.
func TestLerpEndpointsProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		s1 := FromSlice([]float64{a}, 1)
		s1.Lerp(1, FromSlice([]float64{b}, 1))
		s0 := FromSlice([]float64{a}, 1)
		s0.Lerp(0, FromSlice([]float64{b}, 1))
		return s1.Data[0] == a && s0.Data[0] == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition, (A)(B+C) == AB + AC.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b, c := New(m, k), New(k, n), New(k, n)
		a.RandNormal(0, 1, rng)
		b.RandNormal(0, 1, rng)
		c.RandNormal(0, 1, rng)
		lhs := MatMulInto(New(m, n), a, AddInto(New(k, n), b, c))
		rhs := AddInto(New(m, n), MatMulInto(New(m, n), a, b), MatMulInto(New(m, n), a, c))
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips arbitrary shapes.
func TestSerializationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := make([]int, 1+rng.Intn(3))
		for i := range shape {
			shape[i] = 1 + rng.Intn(5)
		}
		x := New(shape...)
		x.RandNormal(0, 10, rng)
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			return false
		}
		var y Tensor
		if _, err := y.ReadFrom(&buf); err != nil {
			return false
		}
		if !x.SameShape(&y) {
			return false
		}
		for i := range x.Data {
			if x.Data[i] != y.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndNorm(t *testing.T) {
	x := FromSlice([]float64{3, 4}, 2)
	if Dot(x, x) != 25 {
		t.Fatalf("Dot = %v", Dot(x, x))
	}
	if x.Norm2() != 5 {
		t.Fatalf("Norm2 = %v", x.Norm2())
	}
}
