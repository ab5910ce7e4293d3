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

// kernelCase is one sub-benchmark: loop builds its operands, resets the
// timer and runs the kernel n times, so the benchmark and
// TestAllocationPins measure the same code.
type kernelCase struct {
	name  string
	flops float64 // per call; 0 where no GFLOPS are reported
	loop  func(tb benchTB, n int)
}

// runKernelCases runs each case as a sub-benchmark.
func runKernelCases(bm *testing.B, cases []kernelCase) {
	for _, c := range cases {
		bm.Run(c.name, func(bm *testing.B) {
			bm.ReportAllocs()
			c.loop(bm, bm.N)
			if c.flops > 0 {
				bm.ReportMetric(c.flops*float64(bm.N)/bm.Elapsed().Seconds()/1e9, "GFLOPS")
			}
		})
	}
}

// kernelCases runs one serial kernel per shape through caller-owned
// scratch, the way the executor hot path calls it. operands maps
// (m, k, n) to the kernel's two operand shapes.
// Shapes in relu get an a operand with its negative entries zeroed and
// "-relu" after their name.
func kernelCases(seed int64, shapes, relu [][3]int, operands func(m, k, n int) (ar, ac, br, bc int), kernel func(dst, a, b *Tensor) *Tensor) []kernelCase {
	var cases []kernelCase
	for i, s := range slices.Concat(shapes, relu) {
		m, k, n := s[0], s[1], s[2]
		sparse := i >= len(shapes)
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		if sparse {
			name += "-relu"
		}
		cases = append(cases, kernelCase{name, 2 * float64(m) * float64(k) * float64(n), func(tb benchTB, iters int) {
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
			tb.ResetTimer()
			for i := 0; i < iters; i++ {
				kernel(dst, a, b)
			}
		}})
	}
	return cases
}

func matMulIntoCases() []kernelCase {
	return kernelCases(1, matMulBenchShapes, matMulReLUBenchShapes, func(m, k, n int) (int, int, int, int) { return m, k, k, n }, MatMulInto)
}

func matMulTransAIntoCases() []kernelCase {
	return kernelCases(2, matMulTransABenchShapes, nil, func(m, k, n int) (int, int, int, int) { return k, m, k, n }, MatMulTransAInto)
}

func matMulTransBIntoCases() []kernelCase {
	return kernelCases(3, matMulTransBBenchShapes, nil, func(m, k, n int) (int, int, int, int) { return m, k, n, k }, MatMulTransBInto)
}

func BenchmarkMatMulInto(bm *testing.B)       { runKernelCases(bm, matMulIntoCases()) }
func BenchmarkMatMulTransAInto(bm *testing.B) { runKernelCases(bm, matMulTransAIntoCases()) }
func BenchmarkMatMulTransBInto(bm *testing.B) { runKernelCases(bm, matMulTransBIntoCases()) }

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

// benchConvDims is the 3×3, stride-1, pad-1 convolution over geometry g.
func benchConvDims(tb benchTB, g int) ConvDims {
	c := convBenchGeoms[g]
	d, err := NewConvDims(c.batch, c.inC, c.h, c.w, c.c, 3, 3, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// convLoweringCases runs kernel(cols, x, d) on each geometry.
func convLoweringCases(kernel func(cols, x *Tensor, d ConvDims)) []kernelCase {
	var cases []kernelCase
	for g, geom := range convBenchGeoms {
		cases = append(cases, kernelCase{geom.name, 0, func(tb benchTB, n int) {
			d := benchConvDims(tb, g)
			rng := rand.New(rand.NewSource(4))
			x := New(d.Batch, d.InC, d.InH, d.InW)
			cols := New(d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW)
			for _, t := range []*Tensor{x, cols} {
				for i := range t.Data {
					t.Data[i] = rng.NormFloat64()
				}
			}
			tb.ResetTimer()
			for i := 0; i < n; i++ {
				kernel(cols, x, d)
			}
		}})
	}
	return cases
}

func im2ColIntoCases() []kernelCase {
	return convLoweringCases(func(cols, x *Tensor, d ConvDims) { Im2ColInto(cols, x, d) })
}

func col2ImIntoCases() []kernelCase {
	return convLoweringCases(func(cols, x *Tensor, d ConvDims) { Col2ImInto(x, cols, d) })
}

// BenchmarkIm2ColInto measures the unroll step of the convolution
// lowering.
func BenchmarkIm2ColInto(bm *testing.B) { runKernelCases(bm, im2ColIntoCases()) }

// BenchmarkCol2ImInto measures its adjoint, the input-gradient scatter.
func BenchmarkCol2ImInto(bm *testing.B) { runKernelCases(bm, col2ImIntoCases()) }

// convCases are the direct convolution's three passes on the lowering
// benchmarks' geometries, each after a Forward, scratch warmed before
// the timer starts.
func convCases() []kernelCase {
	var cases []kernelCase
	for g, geom := range convBenchGeoms {
		for _, pass := range []string{"forward", "weightgrad", "inputgrad"} {
			cases = append(cases, kernelCase{pass + "/" + geom.name, 0, func(tb benchTB, n int) {
				d := benchConvDims(tb, g)
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
				run := func() { cv.Forward(out, x, w, b, d) }
				run()
				switch pass {
				case "weightgrad":
					run = func() { cv.WeightGrad(dw, db, grad) }
				case "inputgrad":
					run = func() { cv.InputGrad(dx, grad, w) }
				}
				run()
				tb.ResetTimer()
				for i := 0; i < n; i++ {
					run()
				}
			}})
		}
	}
	return cases
}

// BenchmarkConv measures the direct convolution's three passes.
func BenchmarkConv(bm *testing.B) { runKernelCases(bm, convCases()) }
