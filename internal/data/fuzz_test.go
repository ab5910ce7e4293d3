package data

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"
)

// A shard reaches a volunteer as bytes the volunteer cannot vouch for,
// and a decoder that panics or runs out of memory takes the volunteer's
// daemon down with it. FuzzDecodeShard requires that Decode returns —
// never panics — and allocates at most shardAllocFactor times the bytes
// the gzip stream decompresses to, plus shardAllocSlack, whatever the
// headers declare.

// shardAllocFactor covers the decoded forms: a float64 per 8 image
// bytes and an int per 4 label bytes, each in a buffer that doubles as
// words arrive, so up to twice the final size again in the buffers it
// outgrew.
const shardAllocFactor = 8

// shardAllocSlack covers what a decode allocates before any payload: the
// gzip reader's window and tables, the read buffers, the image buffer's
// first 256 KiB and an error message.
const shardAllocSlack = 512 << 10

// gzipped compresses the concatenation of parts as one gzip stream.
func gzipped(t testing.TB, parts ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	for _, p := range parts {
		if _, err := zw.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// words is the little-endian encoding of vs, one uint32 each.
func words(vs ...uint32) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint32(out, v)
	}
	return out
}

// tensorMagic is tensor.ReadFrom's header magic, "TENS".
const tensorMagic = 0x54454e53

// hostileShards are headers that declared far more than their streams
// held: each made the decoder panic or allocate far beyond its input.
func hostileShards(t testing.TB) []struct {
	name string
	blob []byte
} {
	return []struct {
		name string
		blob []byte
	}{
		// The image size 0xffffffff² overflowed into a negative length.
		{"dims overflow", gzipped(t, words(shardMagic, 1, tensorMagic, 2, math.MaxUint32, math.MaxUint32))},
		// 2^25 words (256 MiB) allocated before the first data byte.
		{"256 MiB of images, no data", gzipped(t, words(shardMagic, 1, tensorMagic, 1, 1<<25))},
		// 2^32-1 labels over images that hold no bytes: 16 GiB of
		// label buffer allocated before the count was checked.
		{"2^32-1 labels, rank-0 images", gzipped(t, words(shardMagic, math.MaxUint32, tensorMagic, 0))},
		{"2^32-1 labels, empty images", gzipped(t, words(shardMagic, math.MaxUint32, tensorMagic, 2, math.MaxUint32, 0))},
	}
}

// decompressedSize is how many bytes blob's gzip stream yields before it
// ends or breaks.
func decompressedSize(blob []byte) int64 {
	zr, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		return 0
	}
	n, _ := io.Copy(io.Discard, zr)
	return n
}

// allocatedBy reports the heap bytes f allocated.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkShardDecode decodes blob under the allocation bound.
func checkShardDecode(t *testing.T, blob []byte) (*Dataset, error) {
	t.Helper()
	var (
		d   *Dataset
		err error
	)
	got := allocatedBy(func() { d, err = Decode(blob) })
	if limit := uint64(shardAllocFactor*decompressedSize(blob) + shardAllocSlack); got > limit {
		t.Fatalf("%d bytes (%d decompressed) made Decode allocate %d (limit %d)", len(blob), decompressedSize(blob), got, limit)
	}
	return d, err
}

func TestDecodeRefusesHostileShards(t *testing.T) {
	for _, tc := range hostileShards(t) {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := checkShardDecode(t, tc.blob); err == nil {
				t.Fatal("hostile shard accepted")
			}
		})
	}
}

func FuzzDecodeShard(f *testing.F) {
	c, err := GenerateSynth(smallConfig())
	if err != nil {
		f.Fatal(err)
	}
	// Two hundred images outgrow the decoder's first image buffer; five
	// do not.
	for _, d := range []*Dataset{c.Train, c.Val.Split(10)[0]} {
		valid, err := d.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
	}
	for _, tc := range hostileShards(f) {
		f.Add(tc.blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		d, err := checkShardDecode(t, blob)
		if err != nil {
			return
		}
		if d.X.Rank() < 1 || d.X.Dim(0) != len(d.Labels) {
			t.Fatalf("accepted %v images with %d labels", d.X.Shape(), len(d.Labels))
		}
	})
}
