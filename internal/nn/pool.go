package nn

import (
	"fmt"
	"math"
	"math/rand"

	"vcdl/internal/tensor"
)

// MaxPool2D downsamples NCHW activations with non-overlapping K×K windows
// (stride == K). H and W must be divisible by K.
type MaxPool2D struct {
	K int

	inShape []int
	argmax  []int

	// out/gout are the reused forward/backward outputs: out is fully
	// assigned per call, gout is zeroed before the argmax scatter.
	out, gout *tensor.Tensor
}

// NewMaxPool2D creates a max-pooling layer with window and stride k.
func NewMaxPool2D(k int) *MaxPool2D { return &MaxPool2D{K: k} }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2D expects NCHW, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h%p.K != 0 || w%p.K != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %dx%d not divisible by %d", h, w, p.K))
	}
	oh, ow := h/p.K, w/p.K
	p.inShape = append(p.inShape[:0], n, c, h, w)
	p.out = tensor.EnsureShape(p.out, n, c, oh, ow)
	out := p.out
	if cap(p.argmax) < out.Size() {
		p.argmax = make([]int, out.Size())
	}
	p.argmax = p.argmax[:out.Size()]
	// A strip is one row of windows: K input rows of one plane, whose
	// first row starts at s·K·w because the planes tile x without gaps.
	// Each window keeps the first of its largest taps in (ky, kx) order —
	// a later tap wins only if strictly greater, so a NaN wins only as the
	// first tap — but the taps are visited one (ky, kx) at a time across
	// the whole strip, the running best and argmax held in the output
	// rows, so neighbouring windows' compares are independent work. The
	// compare picks by mask rather than by branch: which tap of a window
	// is largest is as unpredictable as a sign (see keepIf).
	k := p.K
	for s := 0; s < n*c*oh; s++ {
		best, arg := out.Data[s*ow:(s+1)*ow], p.argmax[s*ow:(s+1)*ow]
		top := s * k * w
		for ox := range best {
			arg[ox] = top + ox*k
			best[ox] = x.Data[arg[ox]]
		}
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				if ky == 0 && kx == 0 {
					continue
				}
				tap := top + ky*w + kx
				for ox, b := range best {
					idx := tap + ox*k
					v := x.Data[idx]
					m := -b2u(v > b)
					bb := math.Float64bits(b)
					best[ox] = math.Float64frombits(bb ^ (bb^math.Float64bits(v))&m)
					arg[ox] ^= (arg[ox] ^ idx) & int(m)
				}
			}
		}
	}
	return out
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	p.gout = tensor.EnsureShape(p.gout, p.inShape...)
	out := p.gout
	out.Zero()
	for o, src := range p.argmax {
		out.Data[src] += grad.Data[o]
	}
	return out
}

// Params implements Layer.
func (p *MaxPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *MaxPool2D) Grads() []*tensor.Tensor { return nil }

// Init implements Layer.
func (p *MaxPool2D) Init(*rand.Rand) {}

// GlobalAvgPool2D reduces NCHW activations to [N, C] by averaging each
// channel plane. It is the standard classifier head reduction in ResNets.
type GlobalAvgPool2D struct {
	inShape []int

	// out/gout are the reused forward/backward outputs, fully assigned
	// per call.
	out, gout *tensor.Tensor
}

// NewGlobalAvgPool2D creates a global average pooling layer.
func NewGlobalAvgPool2D() *GlobalAvgPool2D { return &GlobalAvgPool2D{} }

// Forward implements Layer.
func (p *GlobalAvgPool2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: GlobalAvgPool2D expects NCHW, got %v", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	p.inShape = append(p.inShape[:0], n, c, h, w)
	p.out = tensor.EnsureShape(p.out, n, c)
	out := p.out
	hw := float64(h * w)
	for i := 0; i < n*c; i++ {
		plane := x.Data[i*h*w : (i+1)*h*w]
		s := 0.0
		for _, v := range plane {
			s += v
		}
		out.Data[i] = s / hw
	}
	return out
}

// Backward implements Layer.
func (p *GlobalAvgPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := p.inShape[0], p.inShape[1], p.inShape[2], p.inShape[3]
	p.gout = tensor.EnsureShape(p.gout, n, c, h, w)
	out := p.gout
	inv := 1.0 / float64(h*w)
	for i := 0; i < n*c; i++ {
		g := grad.Data[i] * inv
		plane := out.Data[i*h*w : (i+1)*h*w]
		for j := range plane {
			plane[j] = g
		}
	}
	return out
}

// Params implements Layer.
func (p *GlobalAvgPool2D) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (p *GlobalAvgPool2D) Grads() []*tensor.Tensor { return nil }

// Init implements Layer.
func (p *GlobalAvgPool2D) Init(*rand.Rand) {}
