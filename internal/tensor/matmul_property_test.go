package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Naive reference kernels: the untiled loops the tiled implementations
// must match bit-for-bit. They carry the exact zero-skip of the
// production kernels — skipping av == 0 is observable in floating point
// (0 × Inf = NaN, and −0.0 + 0.0 = +0.0 would flip a −0.0 partial sum)
// so the reference must skip identically.

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

func naiveMatMulTransA(a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a.Data[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Data[i*n+j] += av * b.Data[p*n+j]
			}
		}
	}
	return out
}

func naiveMatMulTransB(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.Data[i*k+p] * b.Data[j*k+p]
			}
			out.Data[i*n+j] = s
		}
	}
	return out
}

// propShapes exercises the tile boundaries: 1×1, prime dims, the tile
// edges ±1 in both blocked dimensions (tileI=64, tileJ=256), and k with
// no tail behind its four-wide groups on a later j tile.
var propShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 7, 1},
	{7, 13, 31},
	{3, 257, 5},
	{63, 17, 255},
	{64, 16, 256},
	{65, 19, 257},
	{129, 5, 511},
	{2, 3, 259},
	{97, 101, 103},
	{3, 8, 300}, // k a whole number of four-wide groups, second j tile
	{66, 12, 513},
}

func randTensor(rng *rand.Rand, r, c int) *Tensor {
	t := New(r, c)
	for i := range t.Data {
		switch rng.Intn(8) {
		case 0:
			t.Data[i] = 0 // exercise the zero-skip path
		case 1:
			t.Data[i] = math.Copysign(0, -1) // −0.0 compares == 0, so both kernels skip it
		default:
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

func bitsEqual(t *testing.T, name string, got, want *Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: length %d, want %d", name, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)",
				name, i, math.Float64bits(got.Data[i]), got.Data[i],
				math.Float64bits(want.Data[i]), want.Data[i])
		}
	}
}

// onBothPaths runs f under each kernel dispatch: the Go loops alone,
// then the AVX2 inner loops (skipped where the CPU has none). Every
// bit-identity test below holds both to the same naive references.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	for _, avx2 := range []bool{false, true} {
		name := "go"
		if avx2 {
			name = "avx2"
		}
		t.Run(name, func(t *testing.T) {
			if avx2 && !cpuHasAVX2() {
				t.Skip("CPU lacks AVX2")
			}
			defer func(prev bool) { useAVX2 = prev }(useAVX2)
			useAVX2 = avx2
			f(t)
		})
	}
}

func TestMatMulBitIdenticalToNaive(t *testing.T) {
	onBothPaths(t, testMatMulBitIdenticalToNaive)
}

func testMatMulBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, s := range propShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.k, s.n)
		bitsEqual(t, "MatMulInto", MatMulInto(New(s.m, s.n), a, b), naiveMatMul(a, b))

		// Through dirty scratch it must match too.
		dst := New(s.m, s.n)
		for i := range dst.Data {
			dst.Data[i] = math.NaN()
		}
		bitsEqual(t, "MatMulInto", MatMulInto(dst, a, b), naiveMatMul(a, b))
	}
}

func TestMatMulTransABitIdenticalToNaive(t *testing.T) {
	onBothPaths(t, testMatMulTransABitIdenticalToNaive)
}

func testMatMulTransABitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, s := range propShapes {
		a := randTensor(rng, s.k, s.m)
		b := randTensor(rng, s.k, s.n)
		bitsEqual(t, "MatMulTransAInto", MatMulTransAInto(New(s.m, s.n), a, b), naiveMatMulTransA(a, b))

		dst := New(s.m, s.n)
		for i := range dst.Data {
			dst.Data[i] = math.Inf(1)
		}
		bitsEqual(t, "MatMulTransAInto", MatMulTransAInto(dst, a, b), naiveMatMulTransA(a, b))
	}
}

func TestMatMulTransBBitIdenticalToNaive(t *testing.T) {
	onBothPaths(t, testMatMulTransBBitIdenticalToNaive)
}

func testMatMulTransBBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range propShapes {
		a := randTensor(rng, s.m, s.k)
		b := randTensor(rng, s.n, s.k)
		bitsEqual(t, "MatMulTransBInto", MatMulTransBInto(New(s.m, s.n), a, b), naiveMatMulTransB(a, b))

		dst := New(s.m, s.n)
		for i := range dst.Data {
			dst.Data[i] = -1
		}
		bitsEqual(t, "MatMulTransBInto", MatMulTransBInto(dst, a, b), naiveMatMulTransB(a, b))
	}
}

// TestMatMulParallelBitIdentical pins that the goroutine fan-out path
// (which splits i, a tiled dimension) produces the same bits as the
// serial path for shapes above the parallel threshold. 129 rows over 2,
// 3 and 4 goroutines are chunks of 65, 43 and 33: every split is odd,
// so chunk boundaries fall inside what a serial pass treats as one row
// block.
func TestMatMulParallelBitIdentical(t *testing.T) { onBothPaths(t, testMatMulParallelBitIdentical) }

func testMatMulParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randTensor(rng, 129, 65)
	b := randTensor(rng, 65, 67)
	release := ReserveSerial()
	want := MatMulInto(New(129, 67), a, b)
	release()
	bitsEqual(t, "MatMul(serial vs naive)", want, naiveMatMul(a, b))

	for _, threads := range []int{2, 3, 4} {
		prev := SetMaxThreads(threads)
		before := KernelFanouts()
		got := MatMulInto(New(129, 67), a, b)
		// Each chunk zeroes its own rows as it reaches them: a NaN left
		// in any row would survive into the sum.
		dirty := New(129, 67)
		for i := range dirty.Data {
			dirty.Data[i] = math.NaN()
		}
		gotInto := MatMulInto(dirty, a, b)
		SetMaxThreads(prev)
		if KernelFanouts()-before < 2 {
			t.Fatalf("threads=%d: kernel did not fan out", threads)
		}
		bitsEqual(t, fmt.Sprintf("MatMul(threads=%d)", threads), got, want)
		bitsEqual(t, fmt.Sprintf("MatMulInto(threads=%d, NaN scratch)", threads), gotInto, want)
	}
}

// matmulKernel describes one of the three products over logical
// operands A [m,k] and B [k,n], whatever layout the kernel stores them
// in, so one edge-case table drives all three.
type matmulKernel struct {
	name  string
	into  func(dst, a, b *Tensor) *Tensor
	naive func(a, b *Tensor) *Tensor
	// aShape/bShape give the stored shape; aAt/bAt the flat index of
	// logical A[i][p] and B[p][j].
	aShape, bShape func(m, k, n int) (r, c int)
	aAt            func(i, p, m, k int) int
	bAt            func(p, j, k, n int) int
	// skipsZero: the kernel never forms a product with a zero A element.
	skipsZero bool
}

var matmulKernels = []matmulKernel{
	{
		name: "MatMul", into: MatMulInto, naive: naiveMatMul, skipsZero: true,
		aShape: func(m, k, n int) (int, int) { return m, k },
		bShape: func(m, k, n int) (int, int) { return k, n },
		aAt:    func(i, p, m, k int) int { return i*k + p },
		bAt:    func(p, j, k, n int) int { return p*n + j },
	},
	{
		name: "MatMulTransA", into: MatMulTransAInto, naive: naiveMatMulTransA, skipsZero: true,
		aShape: func(m, k, n int) (int, int) { return k, m },
		bShape: func(m, k, n int) (int, int) { return k, n },
		aAt:    func(i, p, m, k int) int { return p*m + i },
		bAt:    func(p, j, k, n int) int { return p*n + j },
	},
	{
		name: "MatMulTransB", into: MatMulTransBInto, naive: naiveMatMulTransB,
		aShape: func(m, k, n int) (int, int) { return m, k },
		bShape: func(m, k, n int) (int, int) { return n, k },
		aAt:    func(i, p, m, k int) int { return i*k + p },
		bAt:    func(p, j, k, n int) int { return j*k + p },
	},
}

// operands draws the kernel's stored A and B for logical (m, k, n) from
// fill.
func (kn matmulKernel) operands(m, k, n int, fill func(r, c int) *Tensor) (a, b *Tensor) {
	ar, ac := kn.aShape(m, k, n)
	br, bc := kn.bShape(m, k, n)
	return fill(ar, ac), fill(br, bc)
}

// check runs the kernel into NaN-dirtied scratch and bit-compares with
// the naive reference.
func (kn matmulKernel) check(t *testing.T, label string, a, b *Tensor, m, n int) *Tensor {
	t.Helper()
	dst := New(m, n)
	for i := range dst.Data {
		dst.Data[i] = math.NaN()
	}
	got := kn.into(dst, a, b)
	bitsEqual(t, kn.name+" "+label, got, kn.naive(a, b))
	return got
}

// TestMatMulKernelEdgeShapes walks every k around the four-wide group
// (1…9) and around the conv layer's 72, against every m and n around
// the 2×4 output block (and the 8-wide vector: n = 9 is one vector and
// a scalar tail), plus the conv-layer products of both benchmark models.
func TestMatMulKernelEdgeShapes(t *testing.T) { onBothPaths(t, testMatMulKernelEdgeShapes) }

func testMatMulKernelEdgeShapes(t *testing.T) {
	dims := []int{1, 2, 3, 5, 7, 8, 9}
	var shapes [][3]int
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 71, 72, 73} {
		for _, m := range dims {
			for _, n := range dims {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	// Forward, input-gradient and weight-gradient products of a conv
	// layer with 1600 im2col rows, 72 patch columns, 8 channels.
	shapes = append(shapes, [3]int{1600, 72, 8}, [3]int{1600, 8, 72}, [3]int{8, 1600, 72})
	// The same three products of sim_fleet's SmallCNN: 8 images of one
	// 8×8 channel into 8 channels, then 4×4 of 8 channels into 16.
	shapes = append(shapes,
		[3]int{512, 9, 8}, [3]int{512, 8, 9}, [3]int{8, 512, 9},
		[3]int{128, 72, 16}, [3]int{128, 16, 72}, [3]int{16, 128, 72})
	rng := rand.New(rand.NewSource(14))
	fill := func(r, c int) *Tensor { return randTensor(rng, r, c) }
	for _, kn := range matmulKernels {
		for _, s := range shapes {
			m, k, n := s[0], s[1], s[2]
			a, b := kn.operands(m, k, n, fill)
			kn.check(t, fmt.Sprintf("m=%d k=%d n=%d", m, k, n), a, b, m, n)
		}
	}
}

// TestMatMulZeroSkipInsideGroups places a zero (and a −0.0, which also
// compares equal to zero) at each of the four positions of a k-group,
// and at all four, against ±Inf and NaN in the matching row of B. The
// axpy-form kernels must not form 0·Inf or 0·NaN, so their outputs stay
// finite; the dot-form kernel has no zero-skip, so every one of its
// outputs must be NaN; every kernel must match its reference bit for
// bit. The second shape is wide enough for the vector loops: 13 columns
// are one 8-wide, one 4-wide and one scalar step of the axpy row, and
// 6×13 outputs are one 4×8 dot-form panel plus leftover rows and columns.
func TestMatMulZeroSkipInsideGroups(t *testing.T) {
	onBothPaths(t, testMatMulZeroSkipInsideGroups)
}

func testMatMulZeroSkipInsideGroups(t *testing.T) {
	const k = 10 // two full groups and a tail of two
	negZero := math.Copysign(0, -1)
	rng := rand.New(rand.NewSource(15))
	dense := func(r, c int) *Tensor {
		x := New(r, c)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		return x
	}
	positions := [][]int{{0}, {1}, {2}, {3}, {0, 1, 2, 3}, {4, 7}, {8}, {9}}
	for _, kn := range matmulKernels {
		for _, mn := range [][2]int{{3, 5}, {6, 13}} {
			m, n := mn[0], mn[1]
			for _, ps := range positions {
				for _, zero := range []float64{0, negZero} {
					for _, poison := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
						a, b := kn.operands(m, k, n, dense)
						for _, p := range ps {
							for i := 0; i < m; i++ {
								a.Data[kn.aAt(i, p, m, k)] = zero
							}
							for j := 0; j < n; j++ {
								b.Data[kn.bAt(p, j, k, n)] = poison
							}
						}
						label := fmt.Sprintf("m=%d n=%d zero=%g at p=%v vs %g", m, n, zero, ps, poison)
						got := kn.check(t, label, a, b, m, n)
						for i, v := range got.Data {
							if kn.skipsZero && (math.IsNaN(v) || math.IsInf(v, 0)) {
								t.Fatalf("%s %s: element %d = %g, a skipped product was formed", kn.name, label, i, v)
							}
							if !kn.skipsZero && !math.IsNaN(v) {
								t.Fatalf("%s %s: element %d = %g, want NaN from 0·%g", kn.name, label, i, v, poison)
							}
						}
					}
				}
			}
		}
	}
}

// TestAxpyRowsMatchesGoLoop holds axpyRows — the zero-skipping per-row
// axpy that ReLU-sparse groups take, through axpy1AVX2 on the avx2
// path — to its own Go loop and to a naive one, for tile widths through
// every remainder class of the 8-, 4- and 1-wide steps. Coefficients
// include 0 and −0.0 (skipped: the ±Inf and NaN in their rows of b must
// not reach d), ±Inf and NaN; d and b hold NaNs of random payloads, ±Inf
// and signed zeros. Where two NaNs meet x86 keeps the first operand's
// payload, and which operand comes first in a Go loop is the compiler's
// choice: the naive loop here is compiled the other way round, and the
// race detector's build differs again (see
// TestConvMatchesLoweredReference). So against the naive loop NaNs
// compare by class, and against axpyRows' own Go loop — the reference
// the AVX2 routine mirrors — by payload too, in a plain build.
func TestAxpyRowsMatchesGoLoop(t *testing.T) { onBothPaths(t, testAxpyRowsMatchesGoLoop) }

func testAxpyRowsMatchesGoLoop(t *testing.T) {
	payloads := !raceBuild()
	rng := rand.New(rand.NewSource(17))
	negZero := math.Copysign(0, -1)
	special := func() float64 {
		switch rng.Intn(10) {
		case 0:
			return randomNaN(rng)
		case 1:
			return math.Inf(2*rng.Intn(2) - 1)
		case 2:
			return negZero
		case 3:
			return 0
		}
		return rng.NormFloat64()
	}
	same := func(got, want float64, byClass bool) bool {
		return math.Float64bits(got) == math.Float64bits(want) || byClass && math.IsNaN(got) && math.IsNaN(want)
	}
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 31, 72, 73, 256} {
		for trial := 0; trial < 20; trial++ {
			const rows, n = 4, 300
			av := make([]float64, rows)
			for q := range av {
				av[q] = special()
			}
			b := make([]float64, rows*n)
			for i := range b {
				b[i] = special()
			}
			d := make([]float64, w)
			for j := range d {
				d[j] = special()
			}
			naive := append([]float64(nil), d...)
			for q, a := range av {
				if a == 0 {
					continue
				}
				for j := range naive {
					naive[j] += a * b[q*n+j]
				}
			}
			goLoop := append([]float64(nil), d...)
			func(prev bool) {
				defer func() { useAVX2 = prev }()
				useAVX2 = false
				axpyRows(goLoop, av, b, n)
			}(useAVX2)
			axpyRows(d, av, b, n)
			for j := range d {
				if !same(d[j], goLoop[j], !payloads) || !same(d[j], naive[j], true) {
					t.Fatalf("w=%d trial %d av=%v: element %d = %x, Go loop %x, naive loop %x", w, trial, av, j,
						math.Float64bits(d[j]), math.Float64bits(goLoop[j]), math.Float64bits(naive[j]))
				}
			}
		}
	}
}

// TestMatMulSignedZeroOperands draws operands from {−0.0, +0.0, ±1}:
// sums of signed zeros are where an accumulator that did not start at
// +0.0, or a reordered add, would flip a sign bit.
func TestMatMulSignedZeroOperands(t *testing.T) { onBothPaths(t, testMatMulSignedZeroOperands) }

func testMatMulSignedZeroOperands(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, 1, -1}
	rng := rand.New(rand.NewSource(16))
	fill := func(r, c int) *Tensor {
		x := New(r, c)
		for i := range x.Data {
			x.Data[i] = vals[rng.Intn(len(vals))]
		}
		return x
	}
	negZeros := func(r, c int) *Tensor {
		x := New(r, c)
		for i := range x.Data {
			x.Data[i] = vals[0]
		}
		return x
	}
	for _, kn := range matmulKernels {
		for _, s := range [][3]int{{2, 4, 4}, {3, 9, 5}, {5, 13, 9}} {
			m, k, n := s[0], s[1], s[2]
			for trial := 0; trial < 8; trial++ {
				a, b := kn.operands(m, k, n, fill)
				kn.check(t, fmt.Sprintf("signed zeros m=%d k=%d n=%d", m, k, n), a, b, m, n)
			}
			a, b := kn.operands(m, k, n, negZeros)
			kn.check(t, "all −0.0", a, b, m, n)
		}
	}
}

func naiveIm2Col(x *Tensor, d ConvDims) *Tensor {
	cols := New(d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW)
	chw := d.InC * d.InH * d.InW
	hw := d.InH * d.InW
	colW := d.InC * d.KH * d.KW
	for n := 0; n < d.Batch; n++ {
		for oy := 0; oy < d.OutH; oy++ {
			for ox := 0; ox < d.OutW; ox++ {
				ci := 0
				for c := 0; c < d.InC; c++ {
					for ky := 0; ky < d.KH; ky++ {
						iy := oy*d.Stride + ky - d.Pad
						for kx := 0; kx < d.KW; kx++ {
							ix := ox*d.Stride + kx - d.Pad
							if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
								cols.Data[((n*d.OutH+oy)*d.OutW+ox)*colW+ci] = x.Data[n*chw+c*hw+iy*d.InW+ix]
							}
							ci++
						}
					}
				}
			}
		}
	}
	return cols
}

// naiveCol2Im is the per-element scatter Col2ImInto's gather replaced,
// kept as the reference: four compares per element, one += per valid
// tap, in (n, oy, ox, c, ky, kx) order.
func naiveCol2Im(cols *Tensor, d ConvDims) *Tensor {
	x := New(d.Batch, d.InC, d.InH, d.InW)
	chw := d.InC * d.InH * d.InW
	hw := d.InH * d.InW
	colW := d.InC * d.KH * d.KW
	for n := 0; n < d.Batch; n++ {
		for oy := 0; oy < d.OutH; oy++ {
			for ox := 0; ox < d.OutW; ox++ {
				ci := 0
				for c := 0; c < d.InC; c++ {
					for ky := 0; ky < d.KH; ky++ {
						iy := oy*d.Stride + ky - d.Pad
						for kx := 0; kx < d.KW; kx++ {
							ix := ox*d.Stride + kx - d.Pad
							if iy >= 0 && iy < d.InH && ix >= 0 && ix < d.InW {
								x.Data[n*chw+c*hw+iy*d.InW+ix] += cols.Data[((n*d.OutH+oy)*d.OutW+ox)*colW+ci]
							}
							ci++
						}
					}
				}
			}
		}
	}
	return x
}

// TestIm2ColIntoBitIdenticalToNaive holds Im2ColInto and the Col2ImInto
// gather to the per-element loops they replaced, bit for bit, through
// dirty scratch: on a few fixed geometries and on random ones — stride 1–2,
// pad 0–2, kernels 1/2/3/5 wide and high, non-square images down to one
// pixel (so a kernel overhangs both sides at once, or misses the image
// on an axis), batches of 1–3.
func TestIm2ColIntoBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	type geom struct{ b, c, h, w, oc, kh, kw, stride, pad int }
	geoms := []geom{
		{1, 1, 1, 1, 1, 1, 1, 1, 0},
		{2, 3, 7, 5, 4, 3, 3, 1, 1},
		{1, 2, 13, 11, 3, 5, 3, 2, 2},
		{3, 1, 9, 9, 2, 2, 2, 3, 0},
		{2, 2, 2, 3, 1, 5, 5, 1, 2},  // overhangs left and right, top and bottom
		{1, 1, 4, 1, 1, 1, 1, 1, 2},  // corner windows miss the image entirely
		{25, 8, 8, 8, 8, 3, 3, 1, 1}, // live_train
	}
	sizes := []int{1, 2, 3, 5}
	for len(geoms) < 300 {
		g := geom{
			b: 1 + rng.Intn(3), c: 1 + rng.Intn(3), h: 1 + rng.Intn(9), w: 1 + rng.Intn(9), oc: 1,
			kh: sizes[rng.Intn(len(sizes))], kw: sizes[rng.Intn(len(sizes))], stride: 1 + rng.Intn(2), pad: rng.Intn(3),
		}
		if _, err := NewConvDims(g.b, g.c, g.h, g.w, g.oc, g.kh, g.kw, g.stride, g.pad); err == nil {
			geoms = append(geoms, g)
		}
	}
	dirty := func(shape ...int) *Tensor {
		x := New(shape...)
		for i := range x.Data {
			x.Data[i] = math.NaN()
		}
		return x
	}
	for _, g := range geoms {
		d, err := NewConvDims(g.b, g.c, g.h, g.w, g.oc, g.kh, g.kw, g.stride, g.pad)
		if err != nil {
			t.Fatalf("NewConvDims: %v", err)
		}
		name := fmt.Sprintf("%+v", g)
		x := randTensor(rng, 1, g.b*g.c*g.h*g.w).Reshape(g.b, g.c, g.h, g.w)
		want := naiveIm2Col(x, d)
		// Every element must be overwritten, padding zeros included.
		rows, width := d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW
		bitsEqual(t, "Im2ColInto "+name, Im2ColInto(dirty(rows, width), x, d), want)

		cols := randTensor(rng, rows, width)
		bitsEqual(t, "Col2ImInto "+name, Col2ImInto(dirty(d.Batch, d.InC, d.InH, d.InW), cols, d), naiveCol2Im(cols, d))
	}
}

// TestReserveSerialSuppressesFanout is the nested-parallelism
// regression test: while a serial reservation is held (as pool workers
// hold one), a kernel large enough to fan out must not spawn goroutines.
func TestReserveSerialSuppressesFanout(t *testing.T) {
	prev := SetMaxThreads(4) // the host may be single-core; force a cap that would fan out
	defer SetMaxThreads(prev)

	a := New(128, 64)
	b := New(64, 128)
	for i := range a.Data {
		a.Data[i] = 1
	}
	for i := range b.Data {
		b.Data[i] = 1
	}

	dst := New(128, 128)
	MatMulInto(dst, a, b) // warm: fan-out expected here
	if MaxThreads() != 4 {
		t.Fatalf("MaxThreads = %d, want 4", MaxThreads())
	}

	release := ReserveSerial()
	if MaxThreads() != 1 {
		t.Fatalf("MaxThreads under reservation = %d, want 1", MaxThreads())
	}
	before := KernelFanouts()
	MatMulInto(dst, a, b)
	if got := KernelFanouts(); got != before {
		t.Fatalf("kernel fanned out %d times under serial reservation", got-before)
	}
	release()
	release() // idempotent

	if MaxThreads() != 4 {
		t.Fatalf("MaxThreads after release = %d, want 4", MaxThreads())
	}
	before = KernelFanouts()
	MatMulInto(dst, a, b)
	if KernelFanouts() == before {
		t.Fatalf("kernel did not fan out after reservation released")
	}
}
