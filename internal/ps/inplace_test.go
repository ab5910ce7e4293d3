package ps

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vcdl/internal/opt"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

// referenceAssimilate is Equation 1 as it was written before the blend
// moved in place: decode the stored copy, blend into a new vector,
// encode it again. Assimilate must leave the same bytes and the same
// store.Stats behind.
func referenceAssimilate(st store.Store, key string, alpha float64, clientParams []float64) error {
	return st.Update(key, func(old []byte) []byte {
		ws, err := wire.DecodeRawInto(nil, old)
		if err != nil || len(ws) != len(clientParams) {
			return wire.EncodeRaw(clientParams)
		}
		for i := range ws {
			ws[i] = alpha*ws[i] + (1-alpha)*clientParams[i]
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
// changes, one through Assimilate and one through the reference, and
// compares value bytes and every Stats field after each step. The
// eventual stores have lagging replicas, so a difference in how many
// reads either side makes would also show as diverging replica routing.
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
