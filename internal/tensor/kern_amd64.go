package tensor

// Declarations of the AVX2 routines in kern_amd64.s. matmul.go calls
// them only when useAVX2 is set, with every pointer taken from a slice
// already cut to the span the routine touches. noescape keeps the
// packed bᵀ panel of matMulTransBRange on the caller's stack.

//go:noescape
func cpuHasAVX2() bool

// axpy4AVX2 adds four scaled rows of b, n apart, into d[0:w]:
// d[j] = (((d[j] + a0·b[j]) + a1·b[n+j]) + a2·b[2n+j]) + a3·b[3n+j].
//
//go:noescape
func axpy4AVX2(d, b *float64, n, w int, a0, a1, a2, a3 float64)

// dotPanelAVX2 assigns the rows×8 block of dst (row stride n) from rows
// of a (k long, contiguous) and bt, an 8-column panel of bᵀ packed as
// bt[8p+c]. rows must be a multiple of 4.
//
//go:noescape
func dotPanelAVX2(dst *float64, n int, a *float64, k int, bt *float64, rows int)
