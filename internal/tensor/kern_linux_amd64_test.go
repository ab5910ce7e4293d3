package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedArena is a run of accessible pages, viewed as float64s,
// followed by one PROT_NONE page. tail hands out slices that end flush
// against the guard, so a kernel that reads or writes one element past
// its operand faults instead of passing silently; the canary elements
// just before the slice catch the other direction.
type guardedArena []float64

const arenaCanaries = 8

func newGuardedArena(t *testing.T, maxFloats int) guardedArena {
	t.Helper()
	page := syscall.Getpagesize()
	pages := ((maxFloats+arenaCanaries)*8 + page - 1) / page
	mem, err := syscall.Mmap(-1, 0, (pages+1)*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[pages*page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), pages*page/8)
}

// tail returns the last len(src) floats before the guard page, filled
// from src, with arenaCanaries NaNs written just before them.
func (g guardedArena) tail(src []float64) (data, canary []float64) {
	end := len(g)
	data = g[end-len(src) : end : end]
	canary = g[end-len(src)-arenaCanaries : end-len(src)]
	copy(data, src)
	for i := range canary {
		canary[i] = math.NaN()
	}
	return data, canary
}

// TestSIMDKernelsStayInBounds is the trust boundary of code that has no
// bounds checks (the evaluator runs it on server state blended from
// volunteer bytes). Each operand and the destination of all three
// kernels sit flush against a PROT_NONE page, for every remainder class
// of the vector loops: n through the 8/4/1-wide steps and the conv
// widths, k through the four-wide groups, m through the four-row panel.
// An over-read or over-write faults; an under-read pulls a NaN canary
// into the result and an under-write destroys one; and the result must
// be the Go loops' bits. The direct convolution's convPanelAVX2 and
// the one-row axpy1AVX2 are held to the same (checkConvPanelInBounds,
// checkAxpy1InBounds).
func TestSIMDKernelsStayInBounds(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU lacks AVX2")
	}
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	checkConvPanelInBounds(t)
	checkAxpy1InBounds(t)

	ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 72, 73}
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 71, 72, 73}
	const maxDim = 73
	arenaA := newGuardedArena(t, maxDim*maxDim)
	arenaB := newGuardedArena(t, maxDim*maxDim)
	arenaD := newGuardedArena(t, maxDim*maxDim)

	rng := rand.New(rand.NewSource(24))
	fill := func(r, c int) *Tensor { return randTensor(rng, r, c) }
	for _, kn := range matmulKernels {
		for _, n := range ns {
			for _, k := range ks {
				for m := 1; m <= 9; m++ {
					a, b := kn.operands(m, k, n, fill)
					useAVX2 = false
					want := kn.into(New(m, n), a, b)

					ad, _ := arenaA.tail(a.Data)
					bd, _ := arenaB.tail(b.Data)
					dirty := make([]float64, m*n)
					for i := range dirty {
						dirty[i] = math.NaN()
					}
					dd, canary := arenaD.tail(dirty)
					label := fmt.Sprintf("%s m=%d k=%d n=%d", kn.name, m, k, n)
					useAVX2 = true
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("%s: kernel left its operands: %v", label, r)
							}
						}()
						kn.into(FromSlice(dd, m, n), FromSlice(ad, a.shape...), FromSlice(bd, b.shape...))
					}()
					bitsEqual(t, label, FromSlice(dd, m, n), want)
					for i, v := range canary {
						if !math.IsNaN(v) {
							t.Fatalf("%s: canary %d before dst overwritten with %g", label, i, v)
						}
					}
				}
			}
		}
	}
}

// intTail is tail for an offset table: the last len(src) ints before
// the guard page.
func (g guardedArena) intTail(src []int) []int {
	ints := unsafe.Slice((*int)(unsafe.Pointer(&g[0])), len(g))
	data := ints[len(ints)-len(src):]
	copy(data, src)
	return data
}

// checkConvPanelInBounds does the same for convPanelAVX2 under
// convWindows: the padded image, both offset tables, the packed panel,
// the bias and the output each end at a PROT_NONE page, the image's
// last element is the last window's last tap, and the output rows run
// through every window count (the 64-window call tiles and the
// four-window remainder) and channel remainder. The result must be the
// Go loops' bits and the canaries before the output must survive.
func checkConvPanelInBounds(t *testing.T) {
	const maxFloats = 1 << 14
	arenas := make([]guardedArena, 7)
	for i := range arenas {
		arenas[i] = newGuardedArena(t, maxFloats)
	}
	rng := rand.New(rand.NewSource(27))
	for _, ohw := range []int{4, 5, 7, 8, 12, 63, 64, 65, 68, 132} {
		for _, k := range []int{1, 2, 3, 9, 27, 72, 75} {
			for _, outC := range []int{8, 9, 15, 16, 17} {
				// A random image whose last element some window reads
				// last: origins and offsets ascend from 0.
				orig, off := make([]int, ohw), make([]int, k)
				for i := 1; i < ohw; i++ {
					orig[i] = orig[i-1] + 1 + rng.Intn(3)
				}
				for i := 1; i < k; i++ {
					off[i] = off[i-1] + 1 + rng.Intn(5)
				}
				xp := randTensor(rng, 1, orig[ohw-1]+off[k-1]+1).Data
				w, bias := randTensor(rng, outC, k).Data, randTensor(rng, 1, outC).Data
				o8 := outC &^ 7
				wt := make([]float64, o8*k)
				packPanels(wt, w, o8, k)
				want := make([]float64, outC*ohw)
				useAVX2 = false
				convWindows(want, xp, orig, off, w, nil, bias, 0)

				xg, _ := arenas[0].tail(xp)
				wg, _ := arenas[1].tail(w)
				wtg, _ := arenas[2].tail(wt)
				bg, _ := arenas[3].tail(bias)
				og, fg := arenas[4].intTail(orig), arenas[5].intTail(off)
				dirty := make([]float64, outC*ohw)
				for i := range dirty {
					dirty[i] = math.NaN()
				}
				dst, canary := arenas[6].tail(dirty)
				label := fmt.Sprintf("conv ohw=%d k=%d outC=%d", ohw, k, outC)
				useAVX2 = true
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s: kernel left its operands: %v", label, r)
						}
					}()
					convWindows(dst, xg, og, fg, wg, wtg, bg, o8)
				}()
				bitsEqual(t, label, FromSlice(dst, outC, ohw), FromSlice(want, outC, ohw))
				for i, v := range canary {
					if !math.IsNaN(v) {
						t.Fatalf("%s: canary %d before dst overwritten with %g", label, i, v)
					}
				}
			}
		}
	}
}

// checkAxpy1InBounds calls axpy1AVX2 directly with d and b each ending
// flush against a PROT_NONE page, for every width up to 73 — every
// remainder class of its 8-, 4- and 1-wide steps, several times over.
// The result must be the Go loop's bits, and the canaries before d must
// survive; a NaN canary before b that was read would show in the bits.
func checkAxpy1InBounds(t *testing.T) {
	const maxW = 73
	arenaD := newGuardedArena(t, maxW)
	arenaB := newGuardedArena(t, maxW)
	rng := rand.New(rand.NewSource(28))
	for w := 1; w <= maxW; w++ {
		d0, b := randTensor(rng, 1, w).Data, randTensor(rng, 1, w).Data
		a := rng.NormFloat64()
		want := append([]float64(nil), d0...)
		for j, bv := range b {
			want[j] += a * bv
		}
		dg, canary := arenaD.tail(d0)
		bg, _ := arenaB.tail(b)
		label := fmt.Sprintf("axpy1 w=%d", w)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("%s: kernel left its operands: %v", label, r)
				}
			}()
			axpy1AVX2(&dg[0], &bg[0], w, a)
		}()
		bitsEqual(t, label, FromSlice(dg, 1, w), FromSlice(want, 1, w))
		for i, v := range canary {
			if !math.IsNaN(v) {
				t.Fatalf("%s: canary %d before d overwritten with %g", label, i, v)
			}
		}
	}
}
