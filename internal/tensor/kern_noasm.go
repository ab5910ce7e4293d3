//go:build !amd64

package tensor

// Without assembly kernels the Go loops of matmul.go are the only path:
// useAVX2 stays false and the routines below are never reached.

func cpuHasAVX2() bool { return false }

func axpy4AVX2(d, b *float64, n, w int, a0, a1, a2, a3 float64) {
	panic("tensor: axpy4AVX2 without AVX2")
}

func axpy1AVX2(d, b *float64, w int, a float64) {
	panic("tensor: axpy1AVX2 without AVX2")
}

func dotPanelAVX2(dst *float64, n int, a *float64, k int, bt *float64, rows int) {
	panic("tensor: dotPanelAVX2 without AVX2")
}

func convPanelAVX2(dst *float64, ohw int, x *float64, orig, off *int, k int, wt, bias *float64, cnt int) {
	panic("tensor: convPanelAVX2 without AVX2")
}
