package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Raw (uncompressed) parameter encoding, used for parameter-store blobs
// where the store's latency model already accounts for byte volume and
// per-update gzip would dominate simulation wall-clock time.

// EncodeRaw serializes a flat parameter vector without compression.
func EncodeRaw(params []float64) []byte {
	out := make([]byte, 8+8*len(params))
	binary.LittleEndian.PutUint64(out[0:], uint64(len(params)))
	for i, v := range params {
		binary.LittleEndian.PutUint64(out[8+8*i:], math.Float64bits(v))
	}
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
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(blob[8+8*i:]))
	}
	return dst, nil
}
