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
	"strings"
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
// a frame of the right length whose words do not match its checksum
// when delta is non-zero.
func encodeWithSum(t testing.TB, params []float64, delta uint32) []byte {
	t.Helper()
	blob, err := EncodeParams(params)
	if err != nil {
		t.Fatal(err)
	}
	sum := blob[len(blob)-4:]
	binary.LittleEndian.PutUint32(sum, binary.LittleEndian.Uint32(sum)+delta)
	return blob
}

// retiredFrame is params in the retired VPR1 frame: the header, then a
// gzip stream of the words and their CRC-32.
func retiredFrame(t testing.TB, params []float64) []byte {
	t.Helper()
	raw := EncodeRaw(params)[8:]
	raw = binary.LittleEndian.AppendUint32(raw, crc32.ChecksumIEEE(raw))
	out := bytes.NewBuffer(nil)
	out.Write(binary.LittleEndian.AppendUint32(nil, retiredMagic))
	out.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(params))))
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
// frame must be exactly as long as its count says before a decoder
// allocates anything, a count may not overflow past the length check,
// and a blob in the retired gzip frame is refused by name.
func TestDecodersRejectHostileCounts(t *testing.T) {
	valid, err := EncodeParams(make([]float64, 100))
	if err != nil {
		t.Fatal(err)
	}
	params := func(blob []byte) func() error {
		return func() error { _, err := DecodeParams(blob); return err }
	}
	raw := func(n uint64, body int) []byte {
		b := make([]byte, 8+body)
		binary.LittleEndian.PutUint64(b, n)
		return b
	}
	cases := []struct {
		name   string
		decode func() error
		want   string // in the error, when set
	}{
		{"params: bare header claiming 2^32-1", params(hostileParamsHeader(math.MaxUint32)), ""},
		{"params: count 2^32-1 in a 12-byte blob", params(append(hostileParamsHeader(math.MaxUint32), 0, 0, 0, 0)), "bytes, blob has"},
		{"params: one byte short of its count", params(valid[:len(valid)-1]), "bytes, blob has"},
		{"params: one byte over its count", params(append(valid[:len(valid):len(valid)], 0)), "bytes, blob has"},
		{"params: bad CRC", params(encodeWithSum(t, make([]float64, 100), 1)), "checksum"},
		{"params: retired VPR1 gzip frame", params(retiredFrame(t, make([]float64, 100))), "VPR1"},
		{"raw: header claiming 2^61, empty body", func() error { _, err := DecodeRawInto(nil, raw(1<<61, 0)); return err }, ""},
		{"raw: header claiming 2^61+1, one word", func() error { _, err := DecodeRawInto(nil, raw(1<<61+1, 8)); return err }, ""},
		{"raw: header claiming 2^64-1", func() error { _, err := DecodeRawInto(nil, raw(math.MaxUint64, 0)); return err }, ""},
		{"raw: ragged body", func() error { _, err := DecodeRawInto(nil, raw(1, 9)); return err }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			got := allocatedBy(func() { err = tc.decode() })
			if err == nil {
				t.Fatal("hostile blob accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
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
	for _, n := range []int{0, 1, 7, 4095, 4096, 4097, 12293} {
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
	params := make([]float64, 4096)
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
		{"one byte over", append(blob[:len(blob):len(blob)], 0), false},
		{"retired VPR1 frame", retiredFrame(t, params), false},
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
// from the header alone, before the payload's checksum is computed.
func TestDecodeParamsIntoCountChecked(t *testing.T) {
	blob := encodeWithSum(t, make([]float64, 5), 1)
	err := DecodeParamsInto(make([]float64, 4), blob)
	if err == nil || !strings.Contains(err.Error(), "declares 5 params, want 4") {
		t.Fatalf("err = %v, want a count mismatch", err)
	}
}

// TestMaxEncodedSizeBoundsEncoder: MaxEncodedSize is the frame's exact
// length, so a server that sets its upload limit from it refuses any
// longer body and admits every honest one.
func TestMaxEncodedSizeBoundsEncoder(t *testing.T) {
	for _, n := range []int{0, 1, 8191, 8192, 165770} {
		blob, err := EncodeParams(benchParams(n))
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != MaxEncodedSize(n) {
			t.Fatalf("n=%d: %d encoded bytes, MaxEncodedSize %d", n, len(blob), MaxEncodedSize(n))
		}
	}
}
