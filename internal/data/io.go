package data

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"

	"vcdl/internal/tensor"
)

// Shard serialization: a gzip-compressed stream holding the image tensor
// followed by the labels. This models the paper's compressed .npz shard
// files (3.9 MB per CIFAR-10 shard) that BOINC ships to clients.

const shardMagic = 0x56534831 // "VSH1"

// Encode serializes the dataset into a compressed byte blob.
func (d *Dataset) Encode() ([]byte, error) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], shardMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(d.Labels)))
	if _, err := zw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("data: encode header: %w", err)
	}
	if _, err := d.X.WriteTo(zw); err != nil {
		return nil, fmt.Errorf("data: encode images: %w", err)
	}
	lb := make([]byte, 4*len(d.Labels))
	for i, l := range d.Labels {
		binary.LittleEndian.PutUint32(lb[4*i:], uint32(l))
	}
	if _, err := zw.Write(lb); err != nil {
		return nil, fmt.Errorf("data: encode labels: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("data: close gzip: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes a blob produced by Encode. The blob is untrusted:
// the label count must match the image count before anything is sized by
// it, and the labels, like the images, are held only as their bytes
// arrive, so a header that declares more than the stream holds costs at
// most a fixed multiple of the bytes actually decompressed.
func Decode(blob []byte) (*Dataset, error) {
	zr, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("data: open gzip: %w", err)
	}
	defer zr.Close()
	var hdr [8]byte
	if _, err := io.ReadFull(zr, hdr[:]); err != nil {
		return nil, fmt.Errorf("data: decode header: %w", err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != shardMagic {
		return nil, fmt.Errorf("data: bad shard magic %#x", m)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	var x tensor.Tensor
	if _, err := x.ReadFrom(zr); err != nil {
		return nil, fmt.Errorf("data: decode images: %w", err)
	}
	if x.Rank() < 1 || x.Dim(0) != n {
		return nil, fmt.Errorf("data: image shape %v does not hold %d labels", x.Shape(), n)
	}
	const chunk = 4096
	labels := make([]int, 0, min(n, chunk))
	lb := make([]byte, 4*min(n, chunk))
	for len(labels) < n {
		m := min(n-len(labels), chunk)
		if _, err := io.ReadFull(zr, lb[:4*m]); err != nil {
			return nil, fmt.Errorf("data: decode labels: %w", err)
		}
		for i := 0; i < m; i++ {
			labels = append(labels, int(binary.LittleEndian.Uint32(lb[4*i:])))
		}
	}
	return &Dataset{X: &x, Labels: labels}, nil
}
