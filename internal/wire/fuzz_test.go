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

// Every target also decodes its input on the portable word loops and
// requires the same verdict and the same bits as the native path.

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
		var slow []float64
		var slowErr error
		portably(func() { slow, slowErr = DecodeParams(blob) })
		sameVerdict(t, err, slowErr)
		if err != nil {
			return
		}
		sameBits(t, params, slow)
		again, err := EncodeParams(params)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatal("accepted blob does not re-encode to itself")
		}
		portably(func() { again, err = EncodeParams(params) })
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("accepted blob does not re-encode to itself on the portable path: %v", err)
		}
	})
}

// fuzzIntoLen is the model size FuzzDecodeParamsInto's server expects;
// the seed corpus is built for it.
const fuzzIntoLen = 64

// FuzzDecodeParamsInto also runs ViewParams, the same strict decode
// without the copy, on every input.
func FuzzDecodeParamsInto(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		dst := make([]float64, fuzzIntoLen)
		var err error
		checkAlloc(t, blob, func() { err = DecodeParamsInto(dst, blob) })
		slow := make([]float64, fuzzIntoLen)
		var slowErr error
		portably(func() { slowErr = DecodeParamsInto(slow, blob) })
		sameVerdict(t, err, slowErr)
		// ViewParams gives the same verdict and bits, viewed in place
		// or, on the portable path, decoded into its spare vector.
		var (
			view, spareView []float64
			spare           []float64
			viewErr         error
		)
		checkAlloc(t, blob, func() { view, viewErr = ViewParams(blob, fuzzIntoLen, &spare) })
		sameVerdict(t, err, viewErr)
		portably(func() { spareView, viewErr = ViewParams(blob, fuzzIntoLen, &spare) })
		sameVerdict(t, err, viewErr)
		if err != nil {
			return
		}
		sameBits(t, dst, slow)
		sameBits(t, view, dst)
		sameBits(t, spareView, dst)
		if &spareView[0] != &spare[0] {
			t.Fatal("portable ViewParams did not decode into its spare vector")
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
		var slow []float64
		var slowErr error
		portably(func() { slow, slowErr = DecodeRawInto(nil, blob) })
		sameVerdict(t, err, slowErr)
		if err != nil {
			return
		}
		sameBits(t, params, slow)
		if !bytes.Equal(EncodeRaw(params), blob) {
			t.Fatal("accepted raw blob does not re-encode to itself")
		}
		var again []byte
		portably(func() { again = EncodeRaw(params) })
		if !bytes.Equal(again, blob) {
			t.Fatal("accepted raw blob does not re-encode to itself on the portable path")
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
		var slow []float64
		var slowErr error
		portably(func() { _, slow, slowErr = DecodeCheckpoint(lent) })
		sameVerdict(t, err, slowErr)
		if err != nil {
			return
		}
		sameBits(t, params, slow)
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

// portably runs f on the portable word loops, as a big-endian host would.
func portably(f func()) {
	defer func(prev bool) { nativeWords = prev }(nativeWords)
	nativeWords = false
	f()
}

// sameVerdict fails t unless the native and the portable decode both
// accepted the input, or refused it with the same error.
func sameVerdict(t *testing.T, native, portable error) {
	t.Helper()
	if (native == nil) != (portable == nil) || (native != nil && native.Error() != portable.Error()) {
		t.Fatalf("word paths disagree: native %v, portable %v", native, portable)
	}
}

// sameBits fails t unless got and want hold the same words, bit for bit.
func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d words, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("word %d: %#x, want %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
