package wire

import (
	"encoding/binary"
	"fmt"
)

// Raw parameter encoding for parameter-store values: a 64-bit count and
// the words, with no checksum. Store values never leave the process, so
// a CRC there would guard no boundary, yet Assimilate would pay for it
// on every in-place blend and every read.

// EncodeRaw serializes a flat parameter vector as a store value.
func EncodeRaw(params []float64) []byte {
	out := make([]byte, 8+RawSize(len(params)))
	binary.LittleEndian.PutUint64(out[0:], uint64(len(params)))
	putWords(out[8:], params)
	return out
}

// DecodeRawInto reverses EncodeRaw into caller-owned memory: the vector
// is written over dst when dst has the blob's length, and into a new
// slice otherwise (nil dst always allocates). It returns the decoded
// vector.
func DecodeRawInto(dst []float64, blob []byte) ([]float64, error) {
	if len(blob) < 8 {
		return nil, fmt.Errorf("wire: raw blob too short (%d bytes)", len(blob))
	}
	// Compared in uint64 and divided, not multiplied: a hostile count
	// must not overflow its way past the length check.
	n := binary.LittleEndian.Uint64(blob[0:])
	if body := uint64(len(blob) - 8); body%8 != 0 || n != body/8 {
		return nil, fmt.Errorf("wire: raw blob length %d does not match %d params", len(blob), n)
	}
	if uint64(len(dst)) != n {
		dst = make([]float64, n)
	}
	getWords(dst, blob[8:])
	return dst, nil
}
