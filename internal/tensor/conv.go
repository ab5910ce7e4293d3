package tensor

import "fmt"

// ConvDims describes a 2-D convolution geometry on NCHW tensors.
type ConvDims struct {
	Batch, InC, InH, InW int
	OutC, KH, KW         int
	Stride, Pad          int
	OutH, OutW           int
}

// NewConvDims validates and completes a convolution geometry.
func NewConvDims(batch, inC, inH, inW, outC, kh, kw, stride, pad int) (ConvDims, error) {
	d := ConvDims{Batch: batch, InC: inC, InH: inH, InW: inW, OutC: outC, KH: kh, KW: kw, Stride: stride, Pad: pad}
	if stride < 1 {
		return d, fmt.Errorf("tensor: conv stride %d < 1", stride)
	}
	if pad < 0 {
		return d, fmt.Errorf("tensor: conv pad %d < 0", pad)
	}
	oh := (inH+2*pad-kh)/stride + 1
	ow := (inW+2*pad-kw)/stride + 1
	if oh < 1 || ow < 1 {
		return d, fmt.Errorf("tensor: conv output %dx%d not positive for input %dx%d kernel %dx%d stride %d pad %d",
			oh, ow, inH, inW, kh, kw, stride, pad)
	}
	d.OutH, d.OutW = oh, ow
	return d, nil
}

// Im2Col unrolls input x of shape [N, C, H, W] into a matrix of shape
// [N*OutH*OutW, C*KH*KW] so convolution becomes a single MatMul with the
// reshaped kernel.
func Im2Col(x *Tensor, d ConvDims) *Tensor {
	return Im2ColInto(New(d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW), x, d)
}

// clipTaps returns the half-open range of kernel taps k in [0, taps) whose
// input coordinate i0+k lies inside [0, n). The range is empty (lo == hi)
// when the window misses the image on this axis altogether.
func clipTaps(i0, taps, n int) (lo, hi int) {
	lo, hi = 0, taps
	if i0 < 0 {
		lo = -i0
	}
	if i0+taps > n {
		hi = n - i0
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Im2ColInto unrolls x into caller-owned cols (shape
// [N*OutH*OutW, C*KH*KW]). Every element of cols is overwritten —
// padding positions are written as explicit zeros — so cols needs no
// pre-clearing and reuse across calls is safe. Returns cols.
//
// Unrolling is a clipped copy: each window's valid taps
// [kyLo,kyHi)×[kxLo,kxHi) are worked out once and each kernel row is
// copied as one run with no test per element; a window that overhangs
// the image zeroes its row of cols first.
func Im2ColInto(cols, x *Tensor, d ConvDims) *Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col wants NCHW rank-4 input, got %v", x.shape))
	}
	if rows, width := d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW; cols.Rank() != 2 || cols.shape[0] != rows || cols.shape[1] != width {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want [%d %d]", cols.shape, rows, width))
	}
	chw := d.InC * d.InH * d.InW
	hw := d.InH * d.InW
	khw := d.KH * d.KW
	colW := d.InC * khw
	inW, kw := d.InW, d.KW
	for n := 0; n < d.Batch; n++ {
		img := x.Data[n*chw : (n+1)*chw]
		for oy := 0; oy < d.OutH; oy++ {
			iy0 := oy*d.Stride - d.Pad
			kyLo, kyHi := clipTaps(iy0, d.KH, d.InH)
			for ox := 0; ox < d.OutW; ox++ {
				ix0 := ox*d.Stride - d.Pad
				kxLo, kxHi := clipTaps(ix0, d.KW, d.InW)
				r0 := ((n*d.OutH+oy)*d.OutW + ox) * colW
				row := cols.Data[r0 : r0+colW]
				run := kxHi - kxLo
				if run < d.KW || kyHi-kyLo < d.KH {
					zeroFloats(row)
					if run == 0 {
						continue
					}
				}
				// Offsets of the first valid tap (ix0 alone is negative on
				// the left border).
				si0, ci0 := (iy0+kyLo)*d.InW+ix0+kxLo, kyLo*d.KW+kxLo
				// A 3×3 kernel's whole row — every built-in model's — is
				// unrolled: at three elements the loop costs what the copy does.
				if run == 3 {
					for c := 0; c < d.InC; c++ {
						si, ci := si0+c*hw, ci0+c*khw
						for ky := kyLo; ky < kyHi; ky++ {
							src, dst := img[si:si+3], row[ci:ci+3]
							dst[0], dst[1], dst[2] = src[0], src[1], src[2]
							si += inW
							ci += kw
						}
					}
					continue
				}
				for c := 0; c < d.InC; c++ {
					si, ci := si0+c*hw, ci0+c*khw
					for ky := kyLo; ky < kyHi; ky++ {
						src, dst := img[si:si+run], row[ci:ci+run]
						for i, v := range src {
							dst[i] = v
						}
						si += inW
						ci += kw
					}
				}
			}
		}
	}
	return cols
}

// Col2Im scatters the column matrix (shape [N*OutH*OutW, C*KH*KW]) back into
// an NCHW image tensor, accumulating overlapping contributions. It is the
// adjoint of Im2Col and is used for the convolution input gradient.
func Col2Im(cols *Tensor, d ConvDims) *Tensor {
	return Col2ImInto(New(d.Batch, d.InC, d.InH, d.InW), cols, d)
}

// Col2ImInto scatters cols into caller-owned x (NCHW), zeroing x first
// because overlapping kernel windows accumulate. Returns x.
//
// Windows are visited in the (n, oy, ox, c, ky, kx) order the
// per-element form used and a window adds at most one term to a pixel, so
// every pixel sums its terms in the same order and every float is the
// same; only the bounds tests are hoisted (see Im2ColInto).
func Col2ImInto(x, cols *Tensor, d ConvDims) *Tensor {
	if x.Rank() != 4 || x.shape[0] != d.Batch || x.shape[1] != d.InC || x.shape[2] != d.InH || x.shape[3] != d.InW {
		panic(fmt.Sprintf("tensor: Col2ImInto dst shape %v, want [%d %d %d %d]", x.shape, d.Batch, d.InC, d.InH, d.InW))
	}
	zeroFloats(x.Data)
	chw := d.InC * d.InH * d.InW
	hw := d.InH * d.InW
	khw := d.KH * d.KW
	colW := d.InC * khw
	inW, kw := d.InW, d.KW
	for n := 0; n < d.Batch; n++ {
		img := x.Data[n*chw : (n+1)*chw]
		for oy := 0; oy < d.OutH; oy++ {
			iy0 := oy*d.Stride - d.Pad
			kyLo, kyHi := clipTaps(iy0, d.KH, d.InH)
			for ox := 0; ox < d.OutW; ox++ {
				ix0 := ox*d.Stride - d.Pad
				kxLo, kxHi := clipTaps(ix0, d.KW, d.InW)
				run := kxHi - kxLo
				if run == 0 {
					continue
				}
				r0 := ((n*d.OutH+oy)*d.OutW + ox) * colW
				row := cols.Data[r0 : r0+colW]
				di0, ci0 := (iy0+kyLo)*d.InW+ix0+kxLo, kyLo*d.KW+kxLo
				if run == 3 {
					for c := 0; c < d.InC; c++ {
						di, ci := di0+c*hw, ci0+c*khw
						for ky := kyLo; ky < kyHi; ky++ {
							dst, src := img[di:di+3], row[ci:ci+3]
							dst[0] += src[0]
							dst[1] += src[1]
							dst[2] += src[2]
							di += inW
							ci += kw
						}
					}
					continue
				}
				for c := 0; c < d.InC; c++ {
					di, ci := di0+c*hw, ci0+c*khw
					for ky := kyLo; ky < kyHi; ky++ {
						dst, src := img[di:di+run], row[ci:ci+run]
						for i, v := range src {
							dst[i] += v
						}
						di += inW
						ci += kw
					}
				}
			}
		}
	}
	return x
}
