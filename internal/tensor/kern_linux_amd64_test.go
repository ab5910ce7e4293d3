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
// be the Go loops' bits.
func TestSIMDKernelsStayInBounds(t *testing.T) {
	if !cpuHasAVX2() {
		t.Skip("CPU lacks AVX2")
	}
	defer func(prev bool) { useAVX2 = prev }(useAVX2)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

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
