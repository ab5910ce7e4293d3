package wire

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := make([]float64, 10000)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(params) {
		t.Fatalf("len = %d, want %d", len(back), len(params))
	}
	for i := range params {
		if params[i] != back[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestEmptyParams(t *testing.T) {
	blob, err := EncodeParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 0 {
		t.Fatalf("len = %d, want 0", len(back))
	}
}

func TestDecodeTooShort(t *testing.T) {
	if _, err := DecodeParams([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob should fail")
	}
}

func TestDecodeBadMagic(t *testing.T) {
	blob, err := EncodeParams([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	blob[0] ^= 0xff
	if _, err := DecodeParams(blob); err == nil {
		t.Fatal("bad magic should fail")
	}
}

func TestDecodeCorruptedPayload(t *testing.T) {
	params := make([]float64, 4096)
	for i := range params {
		params[i] = float64(i)
	}
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte in the middle of the words; the CRC must catch it.
	blob[len(blob)/2] ^= 0xff
	if _, err := DecodeParams(blob); err == nil {
		t.Fatal("corrupted payload should fail")
	}
}

func TestDecodeTruncated(t *testing.T) {
	blob, err := EncodeParams(make([]float64, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeParams(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob should fail")
	}
}

func TestRawSize(t *testing.T) {
	if RawSize(4972746) != 39781968 {
		t.Fatalf("RawSize = %d", RawSize(4972746))
	}
}

func TestSpecialValuesRoundTrip(t *testing.T) {
	params := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if math.Float64bits(params[i]) != math.Float64bits(back[i]) {
			t.Fatalf("bit mismatch at %d", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(params []float64) bool {
		blob, err := EncodeParams(params)
		if err != nil {
			return false
		}
		back, err := DecodeParams(blob)
		if err != nil {
			return false
		}
		if len(back) != len(params) {
			return false
		}
		for i := range params {
			if math.Float64bits(params[i]) != math.Float64bits(back[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripConcurrent round-trips parameter and checkpoint frames
// from many goroutines at once; run with -race, it pins that no call
// shares a buffer with another in flight, and that every word comes back
// bit for bit.
func TestRoundTripConcurrent(t *testing.T) {
	const goroutines = 8
	const iters = 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for it := 0; it < iters; it++ {
				n := rng.Intn(12288)
				params := make([]float64, n)
				for i := range params {
					params[i] = rng.NormFloat64()
				}
				var back []float64
				var err error
				if it%2 == 0 {
					var blob []byte
					blob, err = EncodeParams(params)
					if err == nil {
						back, err = DecodeParams(blob)
					}
				} else {
					var blob []byte
					blob, err = EncodeCheckpoint(it, params)
					if err == nil {
						var epoch int
						epoch, back, err = DecodeCheckpoint(blob)
						if err == nil && epoch != it {
							t.Errorf("g%d it%d: epoch %d, want %d", g, it, epoch, it)
							return
						}
					}
				}
				if err != nil {
					t.Errorf("g%d it%d: %v", g, it, err)
					return
				}
				if len(back) != n {
					t.Errorf("g%d it%d: len %d, want %d", g, it, len(back), n)
					return
				}
				for i := range params {
					if math.Float64bits(back[i]) != math.Float64bits(params[i]) {
						t.Errorf("g%d it%d: bit mismatch at %d", g, it, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWordPathsAgree: the native copy and the portable word loops write
// the same frames and read back the same bits, NaN payloads included,
// and the strict decoder accepts and refuses alike on both.
func TestWordPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	awkward := []uint64{
		0x7ff8000000000001, 0xfff4deadbeef0000, 0x7ff0000000000000, 0xfff0000000000000,
		0x0000000000000001, 0x800fffffffffffff, 0x8000000000000000,
	}
	for _, n := range []int{0, 1, 7, 4097, 3*copyBlock/8 + 1} {
		anyBits := make([]float64, n)
		for i := range anyBits {
			if rng.Intn(4) == 0 {
				anyBits[i] = math.Float64frombits(awkward[rng.Intn(len(awkward))])
			} else {
				anyBits[i] = math.Float64frombits(rng.Uint64())
			}
		}
		for _, params := range [][]float64{anyBits, benchParams(n)} {
			frame, err := EncodeParams(params)
			if err != nil {
				t.Fatal(err)
			}
			raw := EncodeRaw(params)
			var slowFrame, slowRaw []byte
			portably(func() { slowFrame, err = EncodeParams(params); slowRaw = EncodeRaw(params) })
			if err != nil || !bytes.Equal(frame, slowFrame) || !bytes.Equal(raw, slowRaw) {
				t.Fatalf("n=%d: the portable encoders wrote other bytes (%v)", n, err)
			}
			for _, decode := range []func(func()){func(f func()) { f() }, portably} {
				var got, gotRaw []float64
				var err, rawErr error
				decode(func() { got, err = DecodeParams(frame); gotRaw, rawErr = DecodeRawInto(nil, raw) })
				if err != nil || rawErr != nil {
					t.Fatalf("n=%d: %v, %v", n, err, rawErr)
				}
				sameBits(t, got, params)
				sameBits(t, gotRaw, params)
			}
			native, slow := make([]float64, n), make([]float64, n)
			nativeErr := DecodeParamsInto(native, frame)
			var slowErr error
			portably(func() { slowErr = DecodeParamsInto(slow, frame) })
			sameVerdict(t, nativeErr, slowErr)
			if nativeErr == nil {
				sameBits(t, native, slow)
			}
		}
	}
}

// benchParams is n N(0, 1) float64s, like a model update's weights.
func benchParams(n int) []float64 {
	rng := rand.New(rand.NewSource(42))
	params := make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	return params
}

func BenchmarkParamsRoundTrip(b *testing.B) {
	params := benchParams(64 * 1024)
	b.SetBytes(int64(RawSize(len(params))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := EncodeParams(params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeParams(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeCheckpoint(b *testing.B) {
	params := benchParams(64 * 1024)
	b.SetBytes(int64(RawSize(len(params))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCheckpoint(3, params); err != nil {
			b.Fatal(err)
		}
	}
}

// assimStormWords is the model size of the repository benchmark's
// assim_storm workload, flatten + MLP(192, [512, 128], 10), whose
// uploads these two decodes dominate: DecodeParamsInto validates each
// one, and DecodeRawInto reads the blended copy back for scoring.
const assimStormWords = 165_770

func BenchmarkDecodeParamsInto(b *testing.B) {
	blob, err := EncodeParams(benchParams(assimStormWords))
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, assimStormWords)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeParamsInto(dst, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRawInto(b *testing.B) {
	blob := EncodeRaw(benchParams(assimStormWords))
	dst := make([]float64, assimStormWords)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRawInto(dst, blob); err != nil {
			b.Fatal(err)
		}
	}
}
