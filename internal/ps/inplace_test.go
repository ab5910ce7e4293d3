package ps

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"vcdl/internal/opt"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

// referenceAssimilate is Equation 1 written the plain way: decode the
// stored copy into a vector of its own, blend the client copy in with the
// subtraction Assimilate uses, in the same operand order, and encode the
// result. The expression, not the register allocator, fixes which NaN
// payload each side keeps, so the two agree bit for bit. Assimilate must
// leave the same bytes and the same store.Stats behind.
func referenceAssimilate(st store.Store, key string, alpha float64, clientParams []float64) error {
	negBeta := -(1 - alpha)
	return st.Update(key, func(old []byte) []byte {
		ws, err := wire.DecodeRawInto(nil, old)
		if err != nil || len(ws) != len(clientParams) {
			return wire.EncodeRaw(clientParams)
		}
		for i := range ws {
			ws[i] = float64(alpha*ws[i]) - float64(negBeta*clientParams[i])
		}
		return wire.EncodeRaw(ws)
	})
}

// storedCopy clones the value st lends under key.
func storedCopy(st store.Store, key string) (value []byte, version uint64, err error) {
	err = st.View(key, func(v []byte, ver uint64) { value, version = bytes.Clone(v), ver })
	return value, version, err
}

// awkwardWords are the bit patterns a blend could plausibly mangle:
// quiet and signalling NaNs with payloads, infinities, denormals, signed
// zeros and the extremes of the normal range.
var awkwardWords = []uint64{
	0x7ff8000000000001, 0xfff8000000000000, 0x7ff0000000000001, 0x7ff4deadbeef0000,
	0x7ff0000000000000, 0xfff0000000000000,
	0x0000000000000001, 0x800fffffffffffff, 0x0010000000000000,
	0x0000000000000000, 0x8000000000000000,
	0x7fefffffffffffff, 0xffefffffffffffff,
}

func randomVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(4) {
		case 0:
			v[i] = math.Float64frombits(awkwardWords[rng.Intn(len(awkwardWords))])
		case 1:
			v[i] = math.Float64frombits(rng.Uint64())
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// TestInPlaceAssimilateMatchesReference drives two identically seeded
// stores through the same sequence of first writes, blends and length
// changes, one through Assimilate's out-of-place blend and one through
// the reference, and compares value bytes and every Stats field after
// each step. The eventual stores have lagging replicas, so a difference
// in how many reads either side makes would also show as diverging
// replica routing. (The name predates the blend moving out of place.)
func TestInPlaceAssimilateMatchesReference(t *testing.T) {
	schedules := []opt.Schedule{
		opt.Constant{V: 0}, opt.Constant{V: 0.7}, opt.Constant{V: 0.95},
		opt.Constant{V: 0.999}, opt.Constant{V: 1}, opt.EpochFraction{},
	}
	stores := map[string]func() store.Store{
		"strong":   func() store.Store { return store.NewStrong() },
		"eventual": func() store.Store { return store.NewEventual(3, 4, 99) },
	}
	for name, newStore := range stores {
		for _, sched := range schedules {
			t.Run(fmt.Sprintf("%s/alpha=%s", name, sched.Name()), func(t *testing.T) {
				rng := rand.New(rand.NewSource(5))
				got, want := newStore(), newStore()
				srv := NewServer(0, got, sched)
				n := 1 + rng.Intn(300)
				for step := 0; step < 60; step++ {
					if rng.Intn(10) == 0 {
						n = rng.Intn(300) // schema change, sometimes to empty
					}
					epoch := 1 + rng.Intn(40)
					client := randomVector(rng, n)
					if err := srv.Assimilate(client, epoch); err != nil {
						t.Fatal(err)
					}
					if err := referenceAssimilate(want, srv.Key, sched.At(epoch), client); err != nil {
						t.Fatal(err)
					}
					gv, gver, gerr := storedCopy(got, srv.Key)
					wv, wver, werr := storedCopy(want, srv.Key)
					if gerr != nil || werr != nil || gver != wver || !bytes.Equal(gv, wv) {
						t.Fatalf("step %d (n=%d): stored values differ (versions %d/%d, errors %v/%v)", step, n, gver, wver, gerr, werr)
					}
					if gs, ws := got.Stats(), want.Stats(); gs != ws {
						t.Fatalf("step %d: stats differ\n got %+v\nwant %+v", step, gs, ws)
					}
				}
			})
		}
	}
}

// TestAssimilateLeavesClientParamsAlone: the caller's vector is read,
// never written or retained — the upload path hands in a pooled one.
func TestAssimilateLeavesClientParamsAlone(t *testing.T) {
	s := newTestServer(0.5)
	client := []float64{1, 2, 3}
	for range 2 { // first write adopts, second blends
		if err := s.Assimilate(client, 1); err != nil {
			t.Fatal(err)
		}
	}
	client[0], client[1], client[2] = math.NaN(), math.NaN(), math.NaN()
	got, err := s.Current()
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("server copy changed with the caller's vector: %v", got)
	}
}

// onBothPaths runs f under each blend path: the portable word loop, then
// the float view where the host allows one.
func onBothPaths(t *testing.T, f func(t *testing.T)) {
	native := nativeWords
	for _, view := range []bool{false, true} {
		name := "bytes"
		if view {
			name = "view"
		}
		t.Run(name, func(t *testing.T) {
			if view && !native {
				t.Skip("big-endian host: no float view")
			}
			defer func(prev bool) { nativeWords = prev }(nativeWords)
			nativeWords = view
			f(t)
		})
	}
}

// TestInPlaceAssimilateOnBothPaths: the two blend loops — over float
// views and over little-endian words — compile to different code, so a
// pass on one path says nothing about the other.
func TestInPlaceAssimilateOnBothPaths(t *testing.T) {
	onBothPaths(t, TestInPlaceAssimilateMatchesReference)
}

// TestFloatViewNeedsAlignment: the view shares the buffer's memory, and
// a buffer off an 8-byte boundary falls back to the word loop.
func TestFloatViewNeedsAlignment(t *testing.T) {
	if !nativeWords {
		t.Skip("big-endian host: no float view")
	}
	buf := make([]byte, 32)
	if v := floatView(buf[1:17]); v != nil {
		t.Fatal("misaligned buffer got a float view")
	}
	if v := floatView(buf[8:8]); v != nil {
		t.Fatal("empty buffer got a float view")
	}
	v := floatView(buf[8:24])
	if len(v) != 2 {
		t.Fatalf("view has %d words, want 2", len(v))
	}
	v[1] = math.Float64frombits(0x0102030405060708)
	if want := []byte{8, 7, 6, 5, 4, 3, 2, 1}; !bytes.Equal(buf[16:24], want) {
		t.Fatalf("view does not share the buffer: % x", buf[16:24])
	}
}

// TestHoldReadsWhatCurrentReads: Hold reads the copy Current reads, with
// the same store Stats, on each blend path and each store, and both fail
// on an empty store. On the view path Params is the stored words
// themselves; on either, it stays as it was read through more blends
// than the replicas lag by, until Release.
func TestHoldReadsWhatCurrentReads(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		for _, st := range []store.Store{store.NewStrong(), store.NewEventual(1, 3, 1)} {
			srv := NewServer(0, st, opt.Constant{V: 0.7})
			if _, err := srv.Current(); err == nil {
				t.Fatalf("%s: Current on an empty store must fail", st.Name())
			}
			if _, err := srv.Hold(); err == nil {
				t.Fatalf("%s: Hold on an empty store must fail", st.Name())
			}
			rng := rand.New(rand.NewSource(3))
			for range 3 {
				if err := srv.Assimilate(randomVector(rng, 50), 1); err != nil {
					t.Fatal(err)
				}
			}
			want, err := srv.Current()
			if err != nil {
				t.Fatal(err)
			}
			before := st.Stats()
			h, err := srv.Hold()
			if err != nil {
				t.Fatal(err)
			}
			if got := st.Stats(); got.Gets != before.Gets+1 || got.BytesRead != before.BytesRead+uint64(8+8*len(want)) {
				t.Fatalf("%s: Hold counted %+v after %+v, want one read of the copy", st.Name(), got, before)
			}
			if !sameWords(h.Params, want) {
				t.Fatalf("%s: Hold read a different copy from Current", st.Name())
			}
			var shares bool
			st.View(srv.Key, func(v []byte, _ uint64) { shares = &v[8] == (*byte)(unsafe.Pointer(&h.Params[0])) })
			if shares != nativeWords {
				t.Fatalf("%s: held copy shares the stored words: %v, want %v", st.Name(), shares, nativeWords)
			}
			for range 5 {
				if err := srv.Assimilate(randomVector(rng, 50), 1); err != nil {
					t.Fatal(err)
				}
			}
			if !sameWords(h.Params, want) {
				t.Fatalf("%s: the held copy changed under later blends", st.Name())
			}
			h.Release()
		}
	})
}

// sameWords reports whether a and b hold the same words, bit for bit.
func sameWords(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
