package wire

import (
	"bytes"
	"math"
	"testing"
)

// The fuzz targets take the bytes a volunteer could send. Whatever they
// are, a decoder must return — never panic — and must not allocate more
// than the input it was given, plus a small constant, on the way to
// saying no. The seed corpora under testdata/fuzz hold a valid blob, a
// truncated one, a huge-count header and a bad checksum for each
// target, a blob in the retired gzip frame for the parameter ones, and
// a bad magic for the checkpoint one.

// fuzzAllocSlack covers what a decode allocates beyond the vector its
// input holds: the vector's rounding up to a heap size class or page
// (under 8 KiB), and an error message.
const fuzzAllocSlack = 16 << 10

func checkAlloc(t *testing.T, blob []byte, decode func()) {
	t.Helper()
	if got, limit := allocatedBy(decode), uint64(len(blob)+fuzzAllocSlack); got > limit {
		t.Fatalf("%d input bytes made the decoder allocate %d (limit %d)", len(blob), got, limit)
	}
}

func FuzzDecodeParams(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		var (
			params []float64
			err    error
		)
		checkAlloc(t, blob, func() { params, err = DecodeParams(blob) })
		if err != nil {
			return
		}
		again, err := EncodeParams(params)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeParams(again)
		if err != nil || len(back) != len(params) {
			t.Fatalf("accepted vector does not round-trip: %v", err)
		}
	})
}

// fuzzIntoLen is the model size FuzzDecodeParamsInto's server expects;
// the seed corpus is built for it.
const fuzzIntoLen = 64

func FuzzDecodeParamsInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		dst := make([]float64, fuzzIntoLen)
		var err error
		checkAlloc(t, blob, func() { err = DecodeParamsInto(dst, blob) })
		if err != nil {
			return
		}
		want, err := DecodeParams(blob)
		if err != nil || len(want) != len(dst) {
			t.Fatalf("strict decoder accepted what DecodeParams does not: %v, %d values", err, len(want))
		}
		for i, v := range dst {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted non-finite value at %d", i)
			}
			if math.Float64bits(v) != math.Float64bits(want[i]) {
				t.Fatalf("word %d differs from DecodeParams", i)
			}
		}
	})
}

func FuzzDecodeRaw(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		var (
			params []float64
			err    error
		)
		checkAlloc(t, blob, func() { params, err = DecodeRawInto(nil, blob) })
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeRaw(params), blob) {
			t.Fatal("accepted raw blob does not re-encode to itself")
		}
	})
}

// FuzzDecodeCheckpoint takes a VCK1 frame as the parameter store lends
// it to ps.Group.LatestCheckpoint, which decodes inside the store's
// View callback. Beyond no panic and bounded allocation, an accepted
// vector must not alias the input — the store reuses that memory once
// the callback returns — so the input is scribbled over after the
// decode, and the vector must still encode back to the original frame.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		lent := bytes.Clone(blob)
		var (
			epoch  int
			params []float64
			err    error
		)
		checkAlloc(t, lent, func() { epoch, params, err = DecodeCheckpoint(lent) })
		if err != nil {
			return
		}
		for i := range lent {
			lent[i] = 0xA5
		}
		again, err := EncodeCheckpoint(epoch, params)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatal("accepted checkpoint does not re-encode to its frame once the input is overwritten: the vector aliases the input")
		}
	})
}
