package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary layout of a serialized tensor:
//
//	magic   uint32  0x54454e53 ("TENS")
//	rank    uint32
//	shape   rank × uint32
//	data    size × float64 (little endian IEEE-754)
const tensorMagic = 0x54454e53

// WriteTo serializes t to w in the package's binary format.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	var n int64
	hdr := make([]byte, 8+4*len(t.shape))
	binary.LittleEndian.PutUint32(hdr[0:], tensorMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(t.shape)))
	for i, d := range t.shape {
		binary.LittleEndian.PutUint32(hdr[8+4*i:], uint32(d))
	}
	k, err := w.Write(hdr)
	n += int64(k)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 8*4096)
	for off := 0; off < len(t.Data); {
		m := len(t.Data) - off
		if m > 4096 {
			m = 4096
		}
		for i := 0; i < m; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(t.Data[off+i]))
		}
		k, err = w.Write(buf[:8*m])
		n += int64(k)
		if err != nil {
			return n, err
		}
		off += m
	}
	return n, nil
}

// ReadFrom deserializes a tensor written by WriteTo, replacing t's shape and
// data. The stream is untrusted: a shape whose size overflows is refused,
// and past a first 256 KiB the data buffer grows only as words arrive, so
// a header that declares more than the stream holds costs at most a fixed
// multiple of the bytes actually read, plus that first buffer.
func (t *Tensor) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	var fixed [8]byte
	k, err := io.ReadFull(r, fixed[:])
	n += int64(k)
	if err != nil {
		return n, fmt.Errorf("tensor: reading header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(fixed[0:]); m != tensorMagic {
		return n, fmt.Errorf("tensor: bad magic %#x", m)
	}
	rank := int(binary.LittleEndian.Uint32(fixed[4:]))
	if rank < 0 || rank > 32 {
		return n, fmt.Errorf("tensor: unreasonable rank %d", rank)
	}
	shapeBuf := make([]byte, 4*rank)
	k, err = io.ReadFull(r, shapeBuf)
	n += int64(k)
	if err != nil {
		return n, fmt.Errorf("tensor: reading shape: %w", err)
	}
	const maxSize = math.MaxInt / 8 // so that the data's byte count is an int
	shape := make([]int, rank)
	size := 1
	for i := range shape {
		d := uint64(binary.LittleEndian.Uint32(shapeBuf[4*i:]))
		if d > maxSize || d != 0 && uint64(size) > maxSize/d {
			return n, fmt.Errorf("tensor: a %d-dimensional shape overflows at dimension %d", rank, i)
		}
		shape[i] = int(d)
		size *= shape[i]
	}
	// The first buffer holds up to 256 KiB of words, which covers a
	// training shard without a copy; beyond it the buffer doubles.
	const chunk, first = 4096, 1 << 15
	data := make([]float64, 0, min(size, first))
	buf := make([]byte, 8*min(size, chunk))
	for off := 0; off < size; {
		m := min(size-off, chunk)
		k, err = io.ReadFull(r, buf[:8*m])
		n += int64(k)
		if err != nil {
			return n, fmt.Errorf("tensor: reading data: %w", err)
		}
		if off+m > cap(data) {
			// Doubling keeps every word's share of the copies, and the
			// capacity's lead over what was read, bounded.
			grown := make([]float64, off, min(size, max(2*cap(data), off+m)))
			copy(grown, data)
			data = grown
		}
		data = data[:off+m]
		for i := 0; i < m; i++ {
			data[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
		}
		off += m
	}
	t.shape = shape
	t.Data = data
	t.computeStrides()
	return n, nil
}
