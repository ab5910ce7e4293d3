package nn

import (
	"fmt"
	"math/rand"

	"vcdl/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs, computed straight from
// the zero-bordered input by tensor.Conv (no lowered matrix).
type Conv2D struct {
	InC, OutC, K, Stride, Pad int

	W, B   *tensor.Tensor // W: [OutC, InC*K*K], B: [OutC]
	dW, dB *tensor.Tensor

	dims tensor.ConvDims
	conv tensor.Conv

	// Reused NCHW output and input gradient. Both are fully overwritten
	// per call, so reuse cannot change results.
	out, dImg *tensor.Tensor
}

// NewConv2D creates a square-kernel convolution layer.
func NewConv2D(inC, outC, k, stride, pad int) *Conv2D {
	return &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:  tensor.New(outC, inC*k*k),
		B:  tensor.New(outC),
		dW: tensor.New(outC, inC*k*k),
		dB: tensor.New(outC),
	}
}

// Init implements Layer using He-normal initialization with fan-in
// InC*K*K.
func (c *Conv2D) Init(rng *rand.Rand) {
	c.W.HeNormal(c.InC*c.K*c.K, rng)
	c.B.Zero()
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [N,%d,H,W], got %v", c.InC, x.Shape()))
	}
	d, err := tensor.NewConvDims(x.Dim(0), c.InC, x.Dim(2), x.Dim(3), c.OutC, c.K, c.K, c.Stride, c.Pad)
	if err != nil {
		panic("nn: " + err.Error())
	}
	c.dims = d
	c.out = tensor.EnsureShape(c.out, d.Batch, d.OutC, d.OutH, d.OutW)
	return c.conv.Forward(c.out, x, c.W, c.B, d)
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	d := c.dims
	c.dImg = tensor.EnsureShape(c.dImg, d.Batch, d.InC, d.InH, d.InW)
	return c.conv.InputGrad(c.dImg, grad, c.W)
}

// backwardParams is the half of Backward that accumulates dW and dB; it
// leaves the input gradient unformed (see Network.TrainBatch).
func (c *Conv2D) backwardParams(grad *tensor.Tensor) { c.conv.WeightGrad(c.dW, c.dB, grad) }

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }
