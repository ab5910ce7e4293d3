package nn

import (
	"math/rand"

	"vcdl/internal/tensor"
)

// Dense is a fully connected layer: y = xW + b with x of shape [N, in].
type Dense struct {
	In, Out int
	W, B    *tensor.Tensor
	dW, dB  *tensor.Tensor
	x       *tensor.Tensor

	// Reused scratch: the activation output and the backward products.
	// Each is fully overwritten by its Into kernel before use, so reuse
	// is bit-invisible; the outputs are valid until the layer's next
	// forward/backward call, which matches how Network consumes them.
	out, dWprod, dBsum, dx *tensor.Tensor
}

// NewDense creates a Dense layer with zero parameters; call Init (or
// Network.Init) before use.
func NewDense(in, out int) *Dense {
	return &Dense{
		In: in, Out: out,
		W:  tensor.New(in, out),
		B:  tensor.New(out),
		dW: tensor.New(in, out),
		dB: tensor.New(out),
	}
}

// Init implements Layer using He-normal initialization.
func (d *Dense) Init(rng *rand.Rand) {
	d.W.HeNormal(d.In, rng)
	d.B.Zero()
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	d.x = x
	d.out = tensor.EnsureShape(d.out, x.Dim(0), d.Out)
	tensor.MatMulInto(d.out, x, d.W)
	d.out.AddRowVector(d.B)
	return d.out
}

// forwardFused is the Dense→ReLU peephole Network.Forward applies: one
// pass adds the bias, applies the rectifier and records r's mask, in
// exactly the operation order of Forward followed by r.Forward — so the
// result (and r's subsequent Backward) is bit-identical to the unfused
// pair while skipping one full activation-tensor write+read.
func (d *Dense) forwardFused(x *tensor.Tensor, r *ReLU) *tensor.Tensor {
	d.x = x
	d.out = tensor.EnsureShape(d.out, x.Dim(0), d.Out)
	tensor.MatMulInto(d.out, x, d.W)
	mask := r.ensureMask(d.out.Size())
	rows := x.Dim(0)
	for row := 0; row < rows; row++ {
		o := d.out.Data[row*d.Out : (row+1)*d.Out]
		m := mask[row*d.Out : (row+1)*d.Out]
		for j, v := range o {
			v += d.B.Data[j]
			pos := v > 0
			m[j] = pos
			o[j] = keepIf(v, pos)
		}
	}
	return d.out
}

// Backward implements Layer: dX = grad Wᵀ, after backwardParams.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	d.backwardParams(grad)
	d.dx = tensor.EnsureShape(d.dx, grad.Dim(0), d.In)
	return tensor.MatMulTransBInto(d.dx, grad, d.W)
}

// backwardParams accumulates dW += xᵀ grad and dB += column sums,
// leaving the input gradient unformed (see Network.TrainBatch). The
// products go through zeroed scratch then AddInPlace — NOT directly into
// dW/dB — because the two-step form is the accumulation order the
// historical kernel used and float addition is order-sensitive.
func (d *Dense) backwardParams(grad *tensor.Tensor) {
	d.dWprod = tensor.EnsureShape(d.dWprod, d.In, d.Out)
	d.dW.AddInPlace(tensor.MatMulTransAInto(d.dWprod, d.x, grad))
	d.dBsum = tensor.EnsureShape(d.dBsum, d.Out)
	d.dB.AddInPlace(tensor.SumRowsInto(d.dBsum, grad))
}

// Params implements Layer.
func (d *Dense) Params() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*tensor.Tensor { return []*tensor.Tensor{d.dW, d.dB} }
