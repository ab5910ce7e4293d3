package tensor

import (
	"fmt"
	"sync"
)

// matmulParallelThreshold is the minimum number of result elements before
// MatMul fans out across goroutines. Below this, goroutine overhead
// dominates.
const matmulParallelThreshold = 64 * 64

// Cache tile sizes. Tiling covers the i (output row) and j (output
// column) dimensions ONLY — never k. Every output element accumulates
// its k products in strictly ascending-p order, exactly like the naive
// triple loop, so tiled results are bit-identical to the reference
// kernel (float addition is not associative; reordering k would change
// low-order bits). A tileI×tileJ destination block plus the matching
// b-panel stripe stays resident while k streams through it.
//
// Inside a tile the kernels are blocked for instruction-level
// parallelism without touching that order (DESIGN.md §13). The two
// axpy-form kernels take k four at a time: the destination element is
// loaded once, the four products are added as the dependent chain
// (((d + a0·b0) + a1·b1) + a2·b2) + a3·b3 — the very additions the
// per-p loop performs, minus three store/load round trips — and stored
// once. A group holding a zero a falls back to the per-p loop, because
// the zero-skip is observable (0·Inf and 0·NaN are never formed). The
// dot-form kernel computes a 2×4 block of outputs at once: eight
// accumulators, each summing its own products from +0.0 in ascending
// p, so the adds of different outputs overlap while every output's own
// chain is the scalar loop's; a tile's leftover columns take 2×1 blocks
// and its odd last row the scalar loop.
//
// On amd64 with AVX2 the innermost loops run in assembly (kern_amd64.s)
// under the same rule: a vector's lanes are neighbouring output elements
// j, each lane does its element's multiply and add separately (no fused
// multiply-add) in ascending p, and nothing is ever summed across lanes.
// The fused axpy group becomes axpy4AVX2, 8/4/1 elements of the row at a
// time; the dot form becomes dotPanelAVX2 over 4-row × 8-column blocks
// of outputs. The zero-group test, the k mod 4 tail, the row and column
// remainders and every other GOARCH keep the Go loops, which are the
// reference the assembly is bit-compared against.
const (
	matmulTileI = 64
	matmulTileJ = 256
)

// useAVX2 selects the assembly inner loops of kern_amd64.s under the
// three range kernels; it is false on every other GOARCH and on amd64
// hosts without AVX2, where the Go loops below are the whole kernel.
// Both paths produce the same bits (the tests flip it to compare them).
var useAVX2 = cpuHasAVX2()

// MatMulInto computes dst = a @ b for rank-2 tensors a [m,k] and b [k,n]
// using caller-owned storage. dst must be rank-2 with shape [m,n]; its
// prior contents are discarded. The kernel is a cache-tiled ikj loop
// (streaming through b rows), and splits row blocks of a across
// goroutines for large products. Returns dst.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	m, n := matmulShape(a, b)
	checkDstShape("MatMulInto", dst, m, n)
	matMulInto(dst.Data, a.Data, b.Data, m, a.shape[1], n)
	return dst
}

func matmulShape(a, b *Tensor) (m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	return a.shape[0], b.shape[1]
}

func checkDstShape(op string, dst *Tensor, m, n int) {
	if dst.Rank() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want [%d %d]", op, dst.shape, m, n))
	}
}

func zeroFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

func matMulInto(dst, a, b []float64, m, k, n int) {
	workers := MaxThreads()
	if m*n < matmulParallelThreshold || workers <= 1 || m < 2 {
		matMulRange(dst, a, b, 0, m, k, n, false)
		return
	}
	if workers > m {
		workers = m
	}
	fanoutSpawns.Add(1)
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(dst, a, b, lo, hi, k, n, false)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulRange assigns rows [lo,hi) of dst = a @ b, tiled over i and j.
// Accumulation into each dst element starts from +0.0 and runs over p in
// ascending order with the same zero-skip as the naive kernel, so output
// bits match it. Each row of a tile is zeroed just before its k loop, so
// the zeros are written where the sums are about to land, in cache,
// rather than by a separate pass over the whole destination. With acc
// the rows are not zeroed and the products are added to what dst holds:
// the chain each element would have continued had a's columns and b's
// rows gone on (the conv weight gradient runs one chunk of rows at a
// time this way).
func matMulRange(dst, a, b []float64, lo, hi, k, n int, acc bool) {
	k4 := k &^ 3
	for ib := lo; ib < hi; ib += matmulTileI {
		ie := ib + matmulTileI
		if ie > hi {
			ie = hi
		}
		for jb := 0; jb < n; jb += matmulTileJ {
			je := jb + matmulTileJ
			if je > n {
				je = n
			}
			for i := ib; i < ie; i++ {
				di := dst[i*n+jb : i*n+je]
				if !acc {
					zeroFloats(di)
				}
				ai := a[i*k : (i+1)*k]
				p := 0
				for ; p < k4; p += 4 {
					a0, a1, a2, a3 := ai[p], ai[p+1], ai[p+2], ai[p+3]
					if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
						axpyRows(di, ai[p:p+4], b[p*n+jb:], n)
						continue
					}
					if useAVX2 {
						axpy4AVX2(&di[0], &b[p*n+jb : (p+3)*n+je][0], n, len(di), a0, a1, a2, a3)
						continue
					}
					b0 := b[p*n+jb : p*n+je][:len(di)]
					b1 := b[(p+1)*n+jb : (p+1)*n+je][:len(di)]
					b2 := b[(p+2)*n+jb : (p+2)*n+je][:len(di)]
					b3 := b[(p+3)*n+jb : (p+3)*n+je][:len(di)]
					for j, d := range di {
						di[j] = (((d + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
					}
				}
				if p < k {
					axpyRows(di, ai[p:], b[p*n+jb:], n)
				}
			}
		}
	}
}

// axpyRows is the per-p loop of the axpy-form kernels: di += av[q] ·
// (row q of b) for q ascending, skipping zero av. b starts at the first
// row's tile column and rows are n apart. It serves the k mod 4 tail
// and the groups that hold a zero — after a ReLU, most groups do — and
// hands each row that is not skipped to axpy1AVX2 when it can.
func axpyRows(di, av, b []float64, n int) {
	for q, a := range av {
		if a == 0 {
			continue
		}
		bq := b[q*n : q*n+len(di)]
		if useAVX2 {
			axpy1AVX2(&di[0], &bq[0], len(di), a)
			continue
		}
		for j, bv := range bq {
			di[j] += a * bv
		}
	}
}

// MatMulTransAInto computes dst = aᵀ @ b for a [k,m] and b [k,n] into
// caller-owned storage, without materialising the transpose, discarding
// dst's prior contents. Used by Dense backward for the weight gradient.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	m, n := matmulTransAShape(a, b)
	checkDstShape("MatMulTransAInto", dst, m, n)
	matMulTransARange(dst.Data, a.Data, b.Data, a.shape[0], m, n)
	return dst
}

func matmulTransAShape(a, b *Tensor) (m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA wants rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[0] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA outer dimension mismatch %v x %v", a.shape, b.shape))
	}
	return a.shape[1], b.shape[1]
}

// matMulTransARange assigns dst = aᵀ @ b tiled over i and j, with p
// streaming in ascending order inside each tile: per-element
// accumulation order matches the naive p-outer kernel exactly. Each tile
// is zeroed as it is entered, as in matMulRange.
func matMulTransARange(dst, a, b []float64, k, m, n int) {
	k4 := k &^ 3
	for ib := 0; ib < m; ib += matmulTileI {
		ie := ib + matmulTileI
		if ie > m {
			ie = m
		}
		for jb := 0; jb < n; jb += matmulTileJ {
			je := jb + matmulTileJ
			if je > n {
				je = n
			}
			w := je - jb
			for i := ib; i < ie; i++ {
				zeroFloats(dst[i*n+jb : i*n+je])
			}
			p := 0
			for ; p < k4; p += 4 {
				b0 := b[p*n+jb : p*n+je]
				b1 := b[(p+1)*n+jb : (p+1)*n+je][:w]
				b2 := b[(p+2)*n+jb : (p+2)*n+je][:w]
				b3 := b[(p+3)*n+jb : (p+3)*n+je][:w]
				for i := ib; i < ie; i++ {
					a0, a1, a2, a3 := a[p*m+i], a[(p+1)*m+i], a[(p+2)*m+i], a[(p+3)*m+i]
					di := dst[i*n+jb : i*n+je][:w]
					if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
						axpyRows(di, []float64{a0, a1, a2, a3}, b[p*n+jb:], n)
						continue
					}
					if useAVX2 {
						axpy4AVX2(&di[0], &b[p*n+jb : (p+3)*n+je][0], n, w, a0, a1, a2, a3)
						continue
					}
					for j, bv := range b0 {
						di[j] = (((di[j] + a0*bv) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
					}
				}
			}
			for ; p < k; p++ {
				for i := ib; i < ie; i++ {
					axpyRows(dst[i*n+jb:i*n+je], a[p*m+i:p*m+i+1], b[p*n+jb:], n)
				}
			}
		}
	}
}

// MatMulTransBInto computes dst = a @ bᵀ for a [m,k] and b [n,k] into
// caller-owned storage, without materialising the transpose, overwriting
// every element of dst. Used by Dense backward for the input gradient.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	m, n := matmulTransBShape(a, b)
	checkDstShape("MatMulTransBInto", dst, m, n)
	matMulTransBRange(dst.Data, a.Data, b.Data, m, a.shape[1], n)
	return dst
}

func matmulTransBShape(a, b *Tensor) (m, n int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB wants rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	if a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	return a.shape[0], b.shape[0]
}

// dotPanelMaxK is the longest inner dimension the AVX2 dot-form path
// takes: its packed 8-column panel of bᵀ is a fixed stack array of
// 8·dotPanelMaxK floats (8 KiB), enough for every conv and dense
// product the models form.
const dotPanelMaxK = 128

// matMulTransBRange assigns dst = a @ bᵀ. Each element is an independent
// dot product accumulated in ascending-p order into a scalar starting at
// +0.0, so neither tiling, nor computing several elements side by side,
// nor which of the two paths computes an element can change its bits.
// With AVX2 the leading rows (a multiple of 4) of the leading columns
// (a multiple of 8) go through dotPanelAVX2; the remaining rows and
// columns, or everything, take the Go blocks.
func matMulTransBRange(dst, a, b []float64, m, k, n int) {
	m4, n8 := 0, 0
	if useAVX2 && m >= 4 && n >= 8 && k >= 1 && k <= dotPanelMaxK {
		m4, n8 = m&^3, n&^7
		matMulTransBPanels(dst, a, b, m4, k, n, n8)
	}
	matMulTransBBlock(dst, a, b, m4, m, 0, n8, k, n)
	matMulTransBBlock(dst, a, b, 0, m, n8, n, k, n)
}

// matMulTransBPanels computes rows [0,m4) × columns [0,n8) of dst = a @
// bᵀ, m4 a multiple of 4 and n8 of 8. Each 8-column panel of bᵀ is
// packed once into bt (lanes are columns j; p ascends along the panel)
// and every tile of rows is then one assembly call, which bounds the
// time a goroutine spends where it cannot be preempted.
func matMulTransBPanels(dst, a, b []float64, m4, k, n, n8 int) {
	var bt [8 * dotPanelMaxK]float64
	for jb := 0; jb < n8; jb += 8 {
		for c := 0; c < 8; c++ {
			for p, v := range b[(jb+c)*k : (jb+c+1)*k] {
				bt[8*p+c] = v
			}
		}
		for ib := 0; ib < m4; ib += matmulTileI {
			rows := m4 - ib
			if rows > matmulTileI {
				rows = matmulTileI
			}
			dotPanelAVX2(&dst[ib*n+jb : (ib+rows-1)*n+jb+8][0], n, &a[ib*k : (ib+rows)*k][0], k, &bt[:8*k][0], rows)
		}
	}
}

// matMulTransBBlock is the Go dot-form kernel over rows [i0,i1) and
// columns [j0,j1) of dst = a @ bᵀ, tiled over i and j: 2×4 blocks of
// outputs, 2×1 blocks for a tile's leftover columns and the scalar loop
// for its odd last row.
func matMulTransBBlock(dst, a, b []float64, i0, i1, j0, j1, k, n int) {
	for ib := i0; ib < i1; ib += matmulTileI {
		ie := ib + matmulTileI
		if ie > i1 {
			ie = i1
		}
		for jb := j0; jb < j1; jb += matmulTileJ {
			je := jb + matmulTileJ
			if je > j1 {
				je = j1
			}
			i := ib
			for ; i+2 <= ie; i += 2 {
				a0 := a[i*k : (i+1)*k]
				a1 := a[(i+1)*k : (i+2)*k][:len(a0)]
				d0 := dst[i*n : (i+1)*n]
				d1 := dst[(i+1)*n : (i+2)*n]
				j := jb
				for ; j+4 <= je; j += 4 {
					b0 := b[j*k : (j+1)*k][:len(a0)]
					b1 := b[(j+1)*k : (j+2)*k][:len(a0)]
					b2 := b[(j+2)*k : (j+3)*k][:len(a0)]
					b3 := b[(j+3)*k : (j+4)*k][:len(a0)]
					var s00, s01, s02, s03, s10, s11, s12, s13 float64
					for p, x0 := range a0 {
						x1 := a1[p]
						y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
						s00 += x0 * y0
						s01 += x0 * y1
						s02 += x0 * y2
						s03 += x0 * y3
						s10 += x1 * y0
						s11 += x1 * y1
						s12 += x1 * y2
						s13 += x1 * y3
					}
					d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
					d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
				}
				for ; j < je; j++ {
					bj := b[j*k : (j+1)*k][:len(a0)]
					var s0, s1 float64
					for p, x0 := range a0 {
						s0 += x0 * bj[p]
						s1 += a1[p] * bj[p]
					}
					d0[j], d1[j] = s0, s1
				}
			}
			if i < ie {
				ai := a[i*k : (i+1)*k]
				di := dst[i*n : (i+1)*n]
				for j := jb; j < je; j++ {
					bj := b[j*k : (j+1)*k][:len(ai)]
					s := 0.0
					for p, x := range ai {
						s += x * bj[p]
					}
					di[j] = s
				}
			}
		}
	}
}
