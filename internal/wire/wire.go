// Package wire provides the on-the-wire encodings VCDL uses to move model
// parameters between clients, the BOINC-style server and the parameter
// stores. A parameter blob is one raw frame: magic, count, the float64
// words little-endian, and a CRC-32 of those words. Trained float64
// weights do not compress, so nothing is compressed; the paper's
// compressed .h5 parameter files (21.2 MB each for the 4.97M-parameter
// model) stay modelled through RawSize, from which the latency models
// charge transfer time.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	paramMagic   = 0x56505232 // "VPR2"
	retiredMagic = 0x56505231 // "VPR1", the gzip frame VPR2 replaced
)

// EncodeParams serializes a flat parameter vector into one frame of
// exactly MaxEncodedSize(len(params)) bytes.
func EncodeParams(params []float64) ([]byte, error) {
	return appendParams(make([]byte, 0, MaxEncodedSize(len(params))), params), nil
}

// appendParams appends the frame of params to dst, which the caller
// sizes so that it does not grow.
func appendParams(dst []byte, params []float64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, paramMagic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(params)))
	start := len(dst)
	dst = dst[:start+RawSize(len(params))]
	putWords(dst[start:], params)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// ErrNonFinite is returned by DecodeParamsInto for a blob that is
// structurally sound but carries a NaN or an infinity.
var ErrNonFinite = errors.New("wire: non-finite parameter value")

// paramHeader checks the magic and that the blob is exactly as long as
// its count says, and returns the count. Nothing is allocated before
// this passes, so a decode costs at most the bytes it arrived in.
func paramHeader(blob []byte) (int, error) {
	if len(blob) < MaxEncodedSize(0) {
		return 0, fmt.Errorf("wire: blob too short (%d bytes)", len(blob))
	}
	switch m := binary.LittleEndian.Uint32(blob); m {
	case paramMagic:
	case retiredMagic:
		return 0, errors.New("wire: VPR1 is the retired gzip parameter frame; re-encode as VPR2")
	default:
		return 0, fmt.Errorf("wire: bad magic %#x", m)
	}
	// Compared in uint64: a hostile count must not overflow past it.
	n := binary.LittleEndian.Uint32(blob[4:])
	if want := uint64(MaxEncodedSize(0)) + 8*uint64(n); uint64(len(blob)) != want {
		return 0, fmt.Errorf("wire: %d params need %d bytes, blob has %d", n, want, len(blob))
	}
	return int(n), nil
}

// DecodeParams reverses EncodeParams, verifying the checksum.
func DecodeParams(blob []byte) ([]float64, error) {
	n, err := paramHeader(blob)
	if err != nil {
		return nil, err
	}
	params := make([]float64, n)
	if _, err := readFrame(params, blob); err != nil {
		return nil, err
	}
	return params, nil
}

// DecodeParamsInto is the strict decode for bytes from outside the trust
// boundary, into a vector the caller owns: it fills dst, whose length is
// the count the caller expects, and fails — before touching the payload
// — when the header declares any other count. Beyond DecodeParams' magic, length
// and checksum checks it returns ErrNonFinite if any value is NaN or
// ±Inf. On error dst holds garbage.
func DecodeParamsInto(dst []float64, blob []byte) error {
	n, err := paramHeader(blob)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("wire: blob declares %d params, want %d", n, len(dst))
	}
	finite, err := readFrame(dst, blob)
	if err != nil {
		return err
	}
	if !finite {
		return ErrNonFinite
	}
	return nil
}

// readFrame verifies the checksum of a blob paramHeader accepted, copies
// its len(dst) words into dst, and reports whether every one was finite.
func readFrame(dst []float64, blob []byte) (finite bool, err error) {
	words := blob[8 : len(blob)-4]
	if got, want := binary.LittleEndian.Uint32(blob[len(blob)-4:]), crc32.ChecksumIEEE(words); got != want {
		return false, fmt.Errorf("wire: checksum mismatch: stored %#x, computed %#x", got, want)
	}
	return getWords(dst, words), nil
}

// putWords writes src into dst as little-endian float64 bits.
func putWords(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

// getWords reads len(dst) little-endian float64s from src and reports
// whether every one was finite.
func getWords(dst []float64, src []byte) (finite bool) {
	const expMask = 0x7ff << 52 // all ones in a NaN or an infinity
	finite = true
	for i := range dst {
		bits := binary.LittleEndian.Uint64(src[8*i:])
		if bits&expMask == expMask {
			finite = false
		}
		dst[i] = math.Float64frombits(bits)
	}
	return finite
}

// MaxEncodedSize is the length of EncodeParams' output for n
// parameters: the 8-byte header, the words and the 4-byte checksum.
// Servers set their upload limit to it.
func MaxEncodedSize(n int) int { return 8 + RawSize(n) + 4 }

// RawSize returns the byte size of a parameter vector of length n — the
// number the latency models use for transfer-time estimation.
func RawSize(n int) int { return 8 * n }
