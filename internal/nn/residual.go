package nn

import (
	"math/rand"

	"vcdl/internal/tensor"
)

// Residual wraps a stack of layers with an identity skip connection:
// y = x + F(x). The wrapped stack must preserve shape (the pre-activation
// ResNetV2 pattern the paper's model uses). For dimension-changing blocks,
// provide a Projection layer stack applied to the skip path.
type Residual struct {
	Body []Layer
	// Proj, if non-nil, is applied to the skip path (1x1 conv etc.).
	Proj []Layer

	// sum/gsum are the reused forward/backward join outputs, fully
	// assigned per call. They are owned by this block, so they never
	// alias the body/skip operands (which belong to inner layers).
	sum, gsum *tensor.Tensor
}

// NewResidual creates an identity-skip residual block.
func NewResidual(body ...Layer) *Residual { return &Residual{Body: body} }

// NewResidualProj creates a residual block whose skip path runs through
// proj (used when the body changes channel count or spatial size).
func NewResidualProj(proj []Layer, body ...Layer) *Residual {
	return &Residual{Body: body, Proj: proj}
}

// Init implements Layer.
func (r *Residual) Init(rng *rand.Rand) {
	for _, l := range r.Body {
		l.Init(rng)
	}
	for _, l := range r.Proj {
		l.Init(rng)
	}
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := x
	for _, l := range r.Body {
		out = l.Forward(out, training)
	}
	skip := x
	for _, l := range r.Proj {
		skip = l.Forward(skip, training)
	}
	r.sum = tensor.EnsureShape(r.sum, out.Shape()...)
	return tensor.AddInto(r.sum, out, skip)
}

// Backward implements Layer.
func (r *Residual) Backward(grad *tensor.Tensor) *tensor.Tensor {
	bodyGrad := grad
	for i := len(r.Body) - 1; i >= 0; i-- {
		bodyGrad = r.Body[i].Backward(bodyGrad)
	}
	skipGrad := grad
	for i := len(r.Proj) - 1; i >= 0; i-- {
		skipGrad = r.Proj[i].Backward(skipGrad)
	}
	r.gsum = tensor.EnsureShape(r.gsum, bodyGrad.Shape()...)
	return tensor.AddInto(r.gsum, bodyGrad, skipGrad)
}

// Params implements Layer.
func (r *Residual) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range r.Body {
		ps = append(ps, l.Params()...)
	}
	for _, l := range r.Proj {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads implements Layer.
func (r *Residual) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range r.Body {
		gs = append(gs, l.Grads()...)
	}
	for _, l := range r.Proj {
		gs = append(gs, l.Grads()...)
	}
	return gs
}
