package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// hostileParamsHeader is a syntactically valid 8-byte header declaring n
// parameters with nothing behind it.
func hostileParamsHeader(n uint32) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], paramMagic)
	binary.LittleEndian.PutUint32(hdr[4:], n)
	return hdr[:]
}

// encodeWithSum is EncodeParams with delta added to the trailing CRC-32:
// a well-formed gzip stream whose payload does not match its checksum
// when delta is non-zero.
func encodeWithSum(t testing.TB, params []float64, delta uint32) []byte {
	t.Helper()
	raw := EncodeRaw(params)[8:]
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw)+delta)
	out := bytes.NewBuffer(hostileParamsHeader(uint32(len(params))))
	zw := gzip.NewWriter(out)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// allocatedBy reports the heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodersRejectHostileCounts pins the trust-boundary bound: a
// header may not make a decoder allocate what the bytes behind it could
// never fill, and a count may not overflow past the length check.
func TestDecodersRejectHostileCounts(t *testing.T) {
	valid, err := EncodeParams(make([]float64, 100))
	if err != nil {
		t.Fatal(err)
	}
	inflated := append(hostileParamsHeader(math.MaxUint32), valid[8:]...)
	raw := func(n uint64, body int) []byte {
		b := make([]byte, 8+body)
		binary.LittleEndian.PutUint64(b, n)
		return b
	}
	cases := []struct {
		name   string
		decode func() error
	}{
		{"params: bare header claiming 2^32-1", func() error { _, err := DecodeParams(hostileParamsHeader(math.MaxUint32)); return err }},
		{"params: a real gzip stream under a 2^32-1 count", func() error { _, err := DecodeParams(inflated); return err }},
		{"raw: header claiming 2^61, empty body", func() error { _, err := DecodeRawInto(nil, raw(1<<61, 0)); return err }},
		{"raw: header claiming 2^61+1, one word", func() error { _, err := DecodeRawInto(nil, raw(1<<61+1, 8)); return err }},
		{"raw: header claiming 2^64-1", func() error { _, err := DecodeRawInto(nil, raw(math.MaxUint64, 0)); return err }},
		{"raw: ragged body", func() error { _, err := DecodeRawInto(nil, raw(1, 9)); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			got := allocatedBy(func() { err = tc.decode() })
			if err == nil {
				t.Fatal("hostile count accepted")
			}
			if got > 1<<20 {
				t.Fatalf("allocated %d bytes before refusing", got)
			}
		})
	}
}

// TestDecodeParamsIntoMatchesDecodeParams: on every valid blob the two
// decoders produce the same bits.
func TestDecodeParamsIntoMatchesDecodeParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, chunkWords - 1, chunkWords, chunkWords + 1, 3*chunkWords + 5} {
		params := make([]float64, n)
		for i := range params {
			params[i] = rng.NormFloat64()
		}
		if n > 2 {
			params[1], params[2] = math.Copysign(0, -1), math.SmallestNonzeroFloat64
		}
		blob, err := EncodeParams(params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := DecodeParams(blob)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, n)
		if err := DecodeParamsInto(got, blob); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: word %d differs", n, i)
			}
		}
	}
}

// TestDecodeParamsIntoRejects runs the strict decoder over every
// malformed input the DecodeParams tests use, plus the two checks only
// it makes.
func TestDecodeParamsIntoRejects(t *testing.T) {
	params := make([]float64, chunkWords)
	for i := range params {
		params[i] = float64(i)
	}
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), blob...)
		b[i] ^= 0xff
		return b
	}
	encode := func(p []float64) []byte {
		b, err := EncodeParams(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	withValue := func(v float64) []byte {
		p := append([]float64(nil), params...)
		p[len(p)-1] = v
		return encode(p)
	}
	cases := []struct {
		name      string
		blob      []byte
		nonFinite bool
	}{
		{"too short", []byte{1, 2, 3}, false},
		{"bad magic", flip(0), false},
		{"corrupted payload", flip(len(blob) / 2), false},
		{"wrong checksum", encodeWithSum(t, params, 1), false},
		{"truncated", blob[:len(blob)/2], false},
		{"header only", blob[:8], false},
		{"one parameter short", encode(params[:len(params)-1]), false},
		{"one parameter long", encode(append(params, 1)), false},
		{"NaN", withValue(math.NaN()), true},
		{"+Inf", withValue(math.Inf(1)), true},
		{"-Inf", withValue(math.Inf(-1)), true},
	}
	dst := make([]float64, len(params))
	for _, tc := range cases {
		err := DecodeParamsInto(dst, tc.blob)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if errors.Is(err, ErrNonFinite) != tc.nonFinite {
			t.Errorf("%s: error %v, ErrNonFinite wanted: %v", tc.name, err, tc.nonFinite)
		}
	}
	for _, ok := range [][]byte{blob, encodeWithSum(t, params, 0)} {
		if err := DecodeParamsInto(dst, ok); err != nil {
			t.Fatalf("a sound blob: %v", err)
		}
	}
}

// TestDecodeParamsIntoCountChecked: a wrong declared count is refused
// from the header alone, before any of the payload is inflated.
func TestDecodeParamsIntoCountChecked(t *testing.T) {
	blob := hostileParamsHeader(5) // no payload at all
	err := DecodeParamsInto(make([]float64, 4), blob)
	if err == nil || errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want a count mismatch", err)
	}
}

func TestMaxEncodedSizeBoundsEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 100, 8191, 8192, 70000} {
		params := make([]float64, n)
		for i := range params {
			// Full-entropy words: nothing for deflate to find.
			params[i] = math.Float64frombits(rng.Uint64())
		}
		blob, err := EncodeParams(params)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) > MaxEncodedSize(n) {
			t.Fatalf("n=%d: %d encoded bytes exceed MaxEncodedSize %d", n, len(blob), MaxEncodedSize(n))
		}
	}
}
