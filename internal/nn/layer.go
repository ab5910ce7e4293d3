// Package nn implements the neural-network substrate of VCDL: layers with
// explicit forward/backward passes, a sequential Network container with
// residual blocks, a softmax cross-entropy head, and flat parameter
// import/export so the parameter server and stores can treat a model as one
// opaque vector (the paper stores all parameters of a model as a single
// value).
package nn

import (
	"math"
	"math/rand"

	"vcdl/internal/tensor"
)

// Layer is a differentiable network stage. Forward consumes the previous
// activation; Backward consumes dLoss/dOutput and returns dLoss/dInput,
// accumulating parameter gradients internally. Layers cache whatever they
// need between the two calls and are not safe for concurrent use; each
// training client owns a private clone of the network.
type Layer interface {
	// Forward computes the layer output. training toggles behaviour that
	// differs between training and inference (e.g. batch-norm statistics).
	Forward(x *tensor.Tensor, training bool) *tensor.Tensor
	// Backward propagates the gradient and accumulates parameter grads.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameter tensors (may be empty).
	Params() []*tensor.Tensor
	// Grads returns gradient tensors aligned 1:1 with Params.
	Grads() []*tensor.Tensor
	// Init (re)initializes parameters using rng.
	Init(rng *rand.Rand)
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool

	// out and gout are the reused forward/backward outputs, fully
	// overwritten per call.
	out, gout *tensor.Tensor
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// ensureMask sizes the activation mask for n elements and returns it.
func (r *ReLU) ensureMask(n int) []bool {
	if cap(r.mask) < n {
		r.mask = make([]bool, n)
	}
	r.mask = r.mask[:n]
	return r.mask
}

// b2u is 1 for true and 0 for false. The compiler reads the bool's byte
// (a SETcc result, or a stored mask) instead of branching on it.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// keepIf returns v if keep holds and +0.0 otherwise, with no branch:
// keep widens to an all-ones or all-zeros mask over v's bits. An
// activation's sign is a coin flip the predictor loses half the time,
// which cost the branchy form most of its time per element; the result
// is the same float either way (a rejected v, whatever its sign or NaN
// payload, becomes +0.0).
func keepIf(v float64, keep bool) float64 {
	return math.Float64frombits(math.Float64bits(v) & -b2u(keep))
}

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	r.out = tensor.EnsureShape(r.out, x.Shape()...)
	out, mask := r.out.Data[:len(x.Data)], r.ensureMask(len(x.Data))
	for i, v := range x.Data {
		pos := v > 0
		mask[i] = pos
		out[i] = keepIf(v, pos)
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	r.gout = tensor.EnsureShape(r.gout, grad.Shape()...)
	gout, mask := r.gout.Data[:len(grad.Data)], r.mask[:len(grad.Data)]
	for i, g := range grad.Data {
		gout[i] = keepIf(g, mask[i])
	}
	return r.gout
}

// Params implements Layer.
func (r *ReLU) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (r *ReLU) Grads() []*tensor.Tensor { return nil }

// Init implements Layer.
func (r *ReLU) Init(*rand.Rand) {}

// Flatten reshapes [N, ...] activations to [N, features].
type Flatten struct {
	inShape []int
}

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape()...)
	return x.Reshape(x.Dim(0), -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return grad.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*tensor.Tensor { return nil }

// Grads implements Layer.
func (f *Flatten) Grads() []*tensor.Tensor { return nil }

// Init implements Layer.
func (f *Flatten) Init(*rand.Rand) {}
