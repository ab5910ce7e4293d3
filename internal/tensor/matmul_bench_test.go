package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// convRows is the im2col row count of the benchmark's conv layer (25
// images of 8×8 outputs); with 8 output channels over 8·3·3 = 72 patch
// columns its three products are the conv* shapes below.
const convRows = 1600

// matmulBenchShapes are (m, k, n) of the m×n result: the cubes, and the
// conv layer's input-gradient / weight-gradient / forward product — one
// per kernel, in the orientation that kernel is called with.
// matMulReLUBenchShapes have an a operand that came out of a ReLU, about
// half zeros, so almost every group of four p holds one and takes the
// zero-skipping axpyRows: assim_storm's evaluator scores 16 samples
// through the second layer of its [512, 128] MLP this way.
var (
	matMulBenchShapes       = [][3]int{{64, 64, 64}, {128, 128, 128}, {256, 256, 256}, {convRows, 8, 72}}
	matMulReLUBenchShapes   = [][3]int{{16, 512, 128}}
	matMulTransABenchShapes = [][3]int{{128, 128, 128}, {8, convRows, 72}}
	matMulTransBBenchShapes = [][3]int{{128, 128, 128}, {convRows, 72, 8}}
)

// benchKernel runs one serial kernel per shape through caller-owned
// scratch, the way the executor hot path calls it. operands maps
// (m, k, n) to the kernel's two operand shapes. The pinned-zero alloc
// guard in CI watches these benchmarks.
// Shapes in relu get an a operand with its negative entries zeroed and
// "-relu" after their name.
func benchKernel(bm *testing.B, seed int64, shapes, relu [][3]int, operands func(m, k, n int) (ar, ac, br, bc int), kernel func(dst, a, b *Tensor) *Tensor) {
	for i, s := range slices.Concat(shapes, relu) {
		m, k, n := s[0], s[1], s[2]
		sparse := i >= len(shapes)
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		if sparse {
			name += "-relu"
		}
		bm.Run(name, func(bm *testing.B) {
			release := ReserveSerial()
			defer release()
			rng := rand.New(rand.NewSource(seed))
			ar, ac, br, bc := operands(m, k, n)
			a, b := New(ar, ac), New(br, bc)
			for i := range a.Data {
				a.Data[i] = rng.NormFloat64()
				if sparse && a.Data[i] < 0 {
					a.Data[i] = 0
				}
			}
			for i := range b.Data {
				b.Data[i] = rng.NormFloat64()
			}
			dst := New(m, n)
			bm.ReportAllocs()
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				kernel(dst, a, b)
			}
			flops := 2 * float64(m) * float64(k) * float64(n)
			bm.ReportMetric(flops*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func BenchmarkMatMulInto(bm *testing.B) {
	benchKernel(bm, 1, matMulBenchShapes, matMulReLUBenchShapes, func(m, k, n int) (int, int, int, int) { return m, k, k, n }, MatMulInto)
}

func BenchmarkMatMulTransAInto(bm *testing.B) {
	benchKernel(bm, 2, matMulTransABenchShapes, nil, func(m, k, n int) (int, int, int, int) { return k, m, k, n }, MatMulTransAInto)
}

func BenchmarkMatMulTransBInto(bm *testing.B) {
	benchKernel(bm, 3, matMulTransBBenchShapes, nil, func(m, k, n int) (int, int, int, int) { return m, k, n, k }, MatMulTransBInto)
}

// convBenchGeoms are the lowering benchmarks' geometries (3×3, stride 1,
// pad 1): the paper CNN's first layer, whose single channel makes the
// matrix nine columns wide, and live_train's residual convolutions —
// 25 images of 8 channels, a [1600, 72] matrix — where the lowering was
// a quarter of a subtask.
var convBenchGeoms = []struct {
	name                string
	batch, inC, h, w, c int
}{
	{"8x1x14x14", 8, 1, 14, 14, 8},
	{"25x8x8x8", 25, 8, 8, 8, 8},
}

// benchConvLowering runs kernel(cols, x, d) on each geometry.
// Alloc-pinned to 0.
func benchConvLowering(bm *testing.B, kernel func(cols, x *Tensor, d ConvDims)) {
	for _, g := range convBenchGeoms {
		d, err := NewConvDims(g.batch, g.inC, g.h, g.w, g.c, 3, 3, 1, 1)
		if err != nil {
			bm.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		x := New(d.Batch, d.InC, d.InH, d.InW)
		cols := New(d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW)
		for _, t := range []*Tensor{x, cols} {
			for i := range t.Data {
				t.Data[i] = rng.NormFloat64()
			}
		}
		bm.Run(g.name, func(bm *testing.B) {
			bm.ReportAllocs()
			for i := 0; i < bm.N; i++ {
				kernel(cols, x, d)
			}
		})
	}
}

// BenchmarkIm2ColInto measures the unroll step of the convolution
// lowering.
func BenchmarkIm2ColInto(bm *testing.B) {
	benchConvLowering(bm, func(cols, x *Tensor, d ConvDims) { Im2ColInto(cols, x, d) })
}

// BenchmarkCol2ImInto measures its adjoint, the input-gradient scatter.
func BenchmarkCol2ImInto(bm *testing.B) {
	benchConvLowering(bm, func(cols, x *Tensor, d ConvDims) { Col2ImInto(x, cols, d) })
}

// BenchmarkConv measures the direct convolution's three passes on the
// lowering benchmarks' geometries, scratch warmed outside the timer.
// Alloc-pinned to 0.
func BenchmarkConv(bm *testing.B) {
	for _, g := range convBenchGeoms {
		d, err := NewConvDims(g.batch, g.inC, g.h, g.w, g.c, 3, 3, 1, 1)
		if err != nil {
			bm.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		k := d.InC * d.KH * d.KW
		x, dx := New(d.Batch, d.InC, d.InH, d.InW), New(d.Batch, d.InC, d.InH, d.InW)
		w, b, dw, db := New(d.OutC, k), New(d.OutC), New(d.OutC, k), New(d.OutC)
		out, grad := New(d.Batch, d.OutC, d.OutH, d.OutW), New(d.Batch, d.OutC, d.OutH, d.OutW)
		for _, t := range []*Tensor{x, w, b, grad} {
			for i := range t.Data {
				t.Data[i] = rng.NormFloat64()
			}
		}
		var cv Conv
		passes := []struct {
			name string
			run  func()
		}{
			{"forward", func() { cv.Forward(out, x, w, b, d) }},
			{"weightgrad", func() { cv.WeightGrad(dw, db, grad) }},
			{"inputgrad", func() { cv.InputGrad(dx, grad, w) }},
		}
		for _, p := range passes {
			bm.Run(p.name+"/"+g.name, func(bm *testing.B) {
				p.run()
				bm.ReportAllocs()
				bm.ResetTimer()
				for i := 0; i < bm.N; i++ {
					p.run()
				}
			})
		}
	}
}
