package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vcdl/internal/tensor"
)

// The rectifier and the pooling argmax select by mask instead of by
// branch. These tests hold them to the branchy loops they replaced, bit
// for bit, on the values where a mask and a branch could part ways:
// signed zeros, infinities, subnormals and NaNs of either sign and with
// a payload, ties and NaNs at every tap of a pooling window.

// awkwardValues are the floats a select-by-mask must treat exactly as
// the `v > 0` branch did.
var awkwardValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), -math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1,
}

// awkwardTensor fills a tensor of the given shape with awkward values and
// normals in a seeded order.
func awkwardTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		if rng.Intn(2) == 0 {
			x.Data[i] = awkwardValues[rng.Intn(len(awkwardValues))]
		} else {
			x.Data[i] = rng.NormFloat64()
		}
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// branchyReLU is the rectifier as it was written before it selected by
// mask: the reference.
func branchyReLU(x []float64) (out []float64, mask []bool) {
	for _, v := range x {
		if v > 0 {
			out, mask = append(out, v), append(mask, true)
		} else {
			out, mask = append(out, 0), append(mask, false)
		}
	}
	return out, mask
}

func TestReLUMatchesBranchyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	r := NewReLU()
	for trial := 0; trial < 4; trial++ {
		x := awkwardTensor(rng, 5, 3, 4, 4)
		wantOut, wantMask := branchyReLU(x.Data)
		sameBits(t, "ReLU.Forward", r.Forward(x, true).Data, wantOut)
		for i, m := range wantMask {
			if r.mask[i] != m {
				t.Fatalf("ReLU mask %d = %v, want %v (x = %x)", i, r.mask[i], m, math.Float64bits(x.Data[i]))
			}
		}
		// A masked-out gradient is +0.0 whatever it was, NaN included.
		g := awkwardTensor(rng, 5, 3, 4, 4)
		want := make([]float64, len(g.Data))
		for i, v := range g.Data {
			if wantMask[i] {
				want[i] = v
			}
		}
		sameBits(t, "ReLU.Backward", r.Backward(g).Data, want)
	}
}

// TestDenseReLUFusedMatchesBranchyReference: the Dense→ReLU peephole of
// Network.Forward rectifies the biased product with the same mask select,
// and must agree with Dense.Forward followed by the branchy rectifier.
func TestDenseReLUFusedMatchesBranchyReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	d, r := NewDense(6, 9), NewReLU()
	d.Init(rng)
	copy(d.B.Data, awkwardValues)
	net := &Network{Layers: []Layer{d, r}}
	x := awkwardTensor(rng, 7, 6)
	for i := 0; i < 6; i++ {
		x.Data[i] = 0 // a zero row sums to +0.0: the rectifier's boundary case
	}
	got := append([]float64(nil), net.Forward(x, true).Data...)
	wantOut, wantMask := branchyReLU(d.Forward(x, true).Data)
	sameBits(t, "Dense→ReLU fused", got, wantOut)
	for i, m := range wantMask {
		if r.mask[i] != m {
			t.Fatalf("fused mask %d = %v, want %v", i, r.mask[i], m)
		}
	}
}

// scanMaxPool is MaxPool2D.Forward as it was written before the strip
// loop: each window scanned alone in (ky, kx) order, a later tap taken
// only when strictly greater. The reference for values and argmax.
func scanMaxPool(x *tensor.Tensor, k int) ([]float64, []int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := h/k, w/k
	out, argmax := make([]float64, n*c*oh*ow), make([]int, n*c*oh*ow)
	for i := 0; i < n*c; i++ {
		plane := x.Data[i*h*w:]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, bestIdx := plane[oy*k*w+ox*k], oy*k*w+ox*k
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						idx := (oy*k+ky)*w + ox*k + kx
						if plane[idx] > best {
							best, bestIdx = plane[idx], idx
						}
					}
				}
				o := (i*oh+oy)*ow + ox
				out[o], argmax[o] = best, i*h*w+bestIdx
			}
		}
	}
	return out, argmax
}

func TestMaxPoolMatchesScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Ties: a window of ±0 and repeated values, where only "first of the
	// largest" decides the argmax.
	ties := func(shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		vals := []float64{0, math.Copysign(0, -1), 1, 1, -1}
		for i := range x.Data {
			x.Data[i] = vals[rng.Intn(len(vals))]
		}
		return x
	}
	type geom struct{ n, c, h, w, k int }
	for _, g := range []geom{
		{1, 1, 1, 1, 1}, {2, 3, 4, 6, 1}, {3, 2, 4, 4, 2}, {2, 8, 8, 8, 2},
		{25, 16, 4, 4, 2}, {2, 2, 6, 9, 3}, {1, 1, 8, 4, 4},
	} {
		for _, fill := range []func(...int) *tensor.Tensor{
			func(s ...int) *tensor.Tensor { return awkwardTensor(rng, s...) },
			ties,
		} {
			x := fill(g.n, g.c, g.h, g.w)
			p := NewMaxPool2D(g.k)
			name := fmt.Sprintf("%+v", g)
			wantOut, wantArg := scanMaxPool(x, g.k)
			sameBits(t, "MaxPool2D.Forward "+name, p.Forward(x, true).Data, wantOut)
			for o, a := range wantArg {
				if p.argmax[o] != a {
					t.Fatalf("MaxPool2D argmax %s: window %d = %d, want %d", name, o, p.argmax[o], a)
				}
			}
		}
	}
	// A NaN at each tap of a 2×2 window against finite neighbours: it wins
	// only as the first tap.
	for tap := 0; tap < 4; tap++ {
		x := tensor.FromSlice([]float64{0.5, 2, -1, 3}, 1, 1, 2, 2)
		x.Data[tap] = math.NaN()
		p := NewMaxPool2D(2)
		wantOut, wantArg := scanMaxPool(x, 2)
		sameBits(t, fmt.Sprintf("NaN at tap %d", tap), p.Forward(x, true).Data, wantOut)
		if p.argmax[0] != wantArg[0] {
			t.Fatalf("NaN at tap %d: argmax %d, want %d", tap, p.argmax[0], wantArg[0])
		}
	}
}

// TestTrainBatchSkipsFirstInputGradient: TrainBatch stops the first
// layer at its parameter gradients when it can. Every gradient must be
// bit-identical to running every layer's full Backward, the stem's input
// gradient must never have been formed, and a first layer that cannot
// stop early (BatchNorm) still runs its Backward.
func TestTrainBatchSkipsFirstInputGradient(t *testing.T) {
	cases := []struct {
		name    string
		builder func() []Layer
		shape   []int
		skipped func(first Layer) bool
	}{
		{"conv stem", MiniResNetV2Builder(3, 4, 4, 4, 1, 3), []int{5, 3, 4, 4},
			func(l Layer) bool { return l.(*Conv2D).dImg == nil && l.(*Conv2D).dCols == nil }},
		{"SmallCNN", SmallCNNBuilder(1, 4, 4, 3), []int{5, 1, 4, 4},
			func(l Layer) bool { return l.(*Conv2D).dImg == nil }},
		{"dense input", MLPBuilder(6, []int{5}, 3), []int{5, 6},
			func(l Layer) bool { return l.(*Dense).dx == nil }},
		{"batchnorm input", func() []Layer {
			return []Layer{NewBatchNorm(6), NewDense(6, 3)}
		}, []int{5, 6},
			func(l Layer) bool { return l.(*BatchNorm).gout != nil }},
	}
	for _, tc := range cases {
		rng := rand.New(rand.NewSource(44))
		net := NewNetwork(tc.builder)
		net.Init(rng)
		ref := net.Clone()
		x, labels := randomBatch(rng, tc.shape, 3)

		for step := 0; step < 2; step++ { // the second step reuses every scratch buffer
			net.TrainBatch(x, labels)

			logits := ref.Forward(x, true)
			_, grad, _ := ref.Loss.LossAndGrad(logits, labels)
			for i := len(ref.Layers) - 1; i >= 0; i-- {
				grad = ref.Layers[i].Backward(grad)
			}
			sameBits(t, fmt.Sprintf("%s step %d gradients", tc.name, step), net.Gradients(), ref.Gradients())
		}
		if !tc.skipped(net.Layers[0]) {
			t.Fatalf("%s: first layer's input gradient handling is not what TrainBatch promises", tc.name)
		}
	}
}
