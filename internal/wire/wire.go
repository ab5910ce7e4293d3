// Package wire provides the on-the-wire encodings VCDL uses to move model
// parameters and job metadata between clients, the BOINC-style server and
// the parameter stores. Parameter blobs are gzip-compressed with a CRC-32
// integrity check, modelling the paper's compressed .h5 parameter files
// (21.2 MB each for the 4.97M-parameter model) and BOINC's automatic
// file compression feature.
//
// The encode/decode hot path is allocation-pooled: the 32 KiB staging
// chunks and the gzip compressor/decompressor state are recycled through
// sync.Pools, and EncodeParamsTo streams straight into any io.Writer so
// callers composing framed formats (checkpoints, blob publication) never
// pay an intermediate []byte copy of the compressed payload.
package wire

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

const paramMagic = 0x56505231 // "VPR1"

// chunkWords is the number of float64 values staged per chunk; each chunk
// buffer is therefore 32 KiB.
const chunkWords = 4096

// chunkPool recycles the 32 KiB staging buffers used to convert between
// float64 vectors and little-endian bytes. Pointer-to-array (not slice)
// so Put never allocates a slice header.
var chunkPool = sync.Pool{
	New: func() any { return new([8 * chunkWords]byte) },
}

// gzipWriterPool recycles compressor state (the dominant per-call
// allocation: hundreds of KiB of deflate window and hash tables).
// Writers are created at BestSpeed once and rebound to new destinations
// with Reset.
var gzipWriterPool = sync.Pool{
	New: func() any {
		zw, err := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		if err != nil {
			panic(err) // BestSpeed is a valid level; unreachable
		}
		return zw
	},
}

// gzipReaderPool recycles decompressor state. A gzip.Reader cannot be
// constructed without a stream, so the pool starts empty and is seeded
// after first use.
var gzipReaderPool sync.Pool

func getReader(r io.Reader) (*gzip.Reader, error) {
	if zr, ok := gzipReaderPool.Get().(*gzip.Reader); ok {
		if err := zr.Reset(r); err != nil {
			return nil, err
		}
		return zr, nil
	}
	return gzip.NewReader(r)
}

// EncodeParams serializes a flat parameter vector with compression and a
// trailing checksum.
func EncodeParams(params []float64) ([]byte, error) {
	var buf bytes.Buffer
	if err := EncodeParamsTo(&buf, params); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// EncodeParamsTo streams the compressed, checksummed parameter encoding
// into w without materializing the blob. It is the copy-free seam for
// framed formats: write your frame header, then EncodeParamsTo the
// payload into the same writer.
func EncodeParamsTo(w io.Writer, params []float64) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], paramMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(params)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	zw := gzipWriterPool.Get().(*gzip.Writer)
	defer gzipWriterPool.Put(zw)
	zw.Reset(w)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(zw, crc)
	chunk := chunkPool.Get().(*[8 * chunkWords]byte)
	defer chunkPool.Put(chunk)
	for off := 0; off < len(params); {
		m := len(params) - off
		if m > chunkWords {
			m = chunkWords
		}
		for i := 0; i < m; i++ {
			binary.LittleEndian.PutUint64(chunk[8*i:], math.Float64bits(params[off+i]))
		}
		if _, err := mw.Write(chunk[:8*m]); err != nil {
			return fmt.Errorf("wire: write params: %w", err)
		}
		off += m
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := zw.Write(sum[:]); err != nil {
		return fmt.Errorf("wire: write checksum: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("wire: close gzip: %w", err)
	}
	return nil
}

// maxInflate is the most deflate can expand its input by (RFC 1951: a
// run of 258 bytes costs at least two bits), so a blob of c compressed
// bytes cannot hold more than maxInflate*c bytes of payload.
const maxInflate = 1032

// ErrNonFinite is returned by DecodeParamsInto for a blob that is
// structurally sound but carries a NaN or an infinity.
var ErrNonFinite = errors.New("wire: non-finite parameter value")

// paramHeader checks the fixed header and returns the declared count.
func paramHeader(blob []byte) (int, error) {
	if len(blob) < 8 {
		return 0, fmt.Errorf("wire: blob too short (%d bytes)", len(blob))
	}
	if m := binary.LittleEndian.Uint32(blob[0:]); m != paramMagic {
		return 0, fmt.Errorf("wire: bad magic %#x", m)
	}
	return int(binary.LittleEndian.Uint32(blob[4:])), nil
}

// DecodeParams reverses EncodeParams, verifying the checksum. The
// declared count is checked against what the compressed bytes present
// could possibly inflate to before anything is allocated, so a hostile
// header costs at most maxInflate times the blob it arrived in.
func DecodeParams(blob []byte) ([]float64, error) {
	n, err := paramHeader(blob)
	if err != nil {
		return nil, err
	}
	if int64(n)*8+4 > int64(len(blob)-8)*maxInflate {
		return nil, fmt.Errorf("wire: %d params cannot fit in %d compressed bytes", n, len(blob)-8)
	}
	params := make([]float64, n)
	if _, err := inflateInto(params, blob[8:]); err != nil {
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
	finite, err := inflateInto(dst, blob[8:])
	if err != nil {
		return err
	}
	if !finite {
		return ErrNonFinite
	}
	return nil
}

// inflateInto decompresses exactly len(dst) values plus the trailing
// checksum from payload, verifies it, and reports whether every value
// was finite.
func inflateInto(dst []float64, payload []byte) (finite bool, err error) {
	zr, err := getReader(bytes.NewReader(payload))
	if err != nil {
		return false, fmt.Errorf("wire: open gzip: %w", err)
	}
	defer gzipReaderPool.Put(zr)
	crc := crc32.NewIEEE()
	chunk := chunkPool.Get().(*[8 * chunkWords]byte)
	defer chunkPool.Put(chunk)
	const expMask = 0x7ff << 52 // all ones in a NaN or an infinity
	finite = true
	for off := 0; off < len(dst); {
		m := min(len(dst)-off, chunkWords)
		if _, err := io.ReadFull(zr, chunk[:8*m]); err != nil {
			return false, fmt.Errorf("wire: read params: %w", err)
		}
		crc.Write(chunk[:8*m])
		for i := range m {
			bits := binary.LittleEndian.Uint64(chunk[8*i:])
			if bits&expMask == expMask {
				finite = false
			}
			dst[off+i] = math.Float64frombits(bits)
		}
		off += m
	}
	var sum [4]byte
	if _, err := io.ReadFull(zr, sum[:]); err != nil {
		return false, fmt.Errorf("wire: read checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != crc.Sum32() {
		return false, fmt.Errorf("wire: checksum mismatch: stored %#x, computed %#x", got, crc.Sum32())
	}
	return finite, nil
}

// MaxEncodedSize bounds the length of EncodeParams' output for n
// parameters: the 8-byte header, the gzip framing, and the payload in
// deflate's stored blocks (5 bytes per 65 535, and an empty one to
// finish), which is the most a compressor that falls back to them emits
// for incompressible input. Servers size their upload limit from it.
func MaxEncodedSize(n int) int {
	raw := RawSize(n) + 4
	return 8 + 18 + raw + 5*(raw/65535+2)
}

// RawSize returns the uncompressed byte size of a parameter vector of
// length n — the number the latency models use for transfer-time
// estimation.
func RawSize(n int) int { return 8 * n }
