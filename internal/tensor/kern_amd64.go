package tensor

// Declarations of the AVX2 routines in kern_amd64.s. matmul.go and
// conv.go call them only when useAVX2 is set, with every pointer taken
// from a slice already cut to the span the routine touches (convWindows'
// offset tables keep every tap inside its padded image). noescape keeps
// the packed bᵀ panel of matMulTransBRange on the caller's stack.

//go:noescape
func cpuHasAVX2() bool

// axpy4AVX2 adds four scaled rows of b, n apart, into d[0:w]:
// d[j] = (((d[j] + a0·b[j]) + a1·b[n+j]) + a2·b[2n+j]) + a3·b[3n+j].
//
//go:noescape
func axpy4AVX2(d, b *float64, n, w int, a0, a1, a2, a3 float64)

// axpy1AVX2 adds one scaled row of b into d[0:w]: d[j] = d[j] + a·b[j].
//
//go:noescape
func axpy1AVX2(d, b *float64, w int, a float64)

// dotPanelAVX2 assigns the rows×8 block of dst (row stride n) from rows
// of a (k long, contiguous) and bt, an 8-column panel of bᵀ packed as
// bt[8p+c]. rows must be a multiple of 4.
//
//go:noescape
func dotPanelAVX2(dst *float64, n int, a *float64, k int, bt *float64, rows int)

// convPanelAVX2 assigns cnt windows × 8 output channels of one sample's
// NCHW output (channel stride ohw) from its padded image x: window r
// reads its taps as x[orig[r] + off[q]] for q in [0, k), against wt, an
// 8-column panel of Wᵀ packed as wt[8q+c], and adds bias[c] after the
// sum. cnt must be a multiple of 4.
//
//go:noescape
func convPanelAVX2(dst *float64, ohw int, x *float64, orig, off *int, k int, wt, bias *float64, cnt int)
