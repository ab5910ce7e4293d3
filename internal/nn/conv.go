package nn

import (
	"fmt"
	"math/rand"

	"vcdl/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs implemented with im2col so
// the inner loop is a matrix multiply.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int

	W, B   *tensor.Tensor // W: [OutC, InC*K*K], B: [OutC]
	dW, dB *tensor.Tensor

	dims tensor.ConvDims
	cols *tensor.Tensor

	// Reused scratch for the lowering pipeline: the matmul product and
	// NCHW output on forward; the rearranged grad, weight-grad product,
	// bias-grad sums, column grad and input grad on backward. Every
	// buffer is fully overwritten (or zeroed by its Into kernel) per
	// call, so reuse cannot change results.
	prod, out                     *tensor.Tensor
	g, dWprod, dBsum, dCols, dImg *tensor.Tensor
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

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d" }

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
	c.cols = tensor.EnsureShape(c.cols, d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW)
	tensor.Im2ColInto(c.cols, x, d)
	// [N*OH*OW, InC*K*K] @ [InC*K*K, OutC] -> [N*OH*OW, OutC]
	c.prod = tensor.EnsureShape(c.prod, d.Batch*d.OutH*d.OutW, d.OutC)
	prod := tensor.MatMulTransBInto(c.prod, c.cols, c.W)
	prod.AddRowVector(c.B)
	// Rearrange [N*OH*OW, OutC] to [N, OutC, OH, OW].
	c.out = tensor.EnsureShape(c.out, d.Batch, d.OutC, d.OutH, d.OutW)
	out := c.out
	ohw := d.OutH * d.OutW
	for n := 0; n < d.Batch; n++ {
		for p := 0; p < ohw; p++ {
			row := prod.Data[(n*ohw+p)*d.OutC:]
			for oc := 0; oc < d.OutC; oc++ {
				out.Data[(n*d.OutC+oc)*ohw+p] = row[oc]
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	d := c.dims
	// dCols = g @ W ; dX = col2im(dCols).
	c.dCols = tensor.EnsureShape(c.dCols, d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW)
	tensor.MatMulInto(c.dCols, c.g, c.W)
	c.dImg = tensor.EnsureShape(c.dImg, d.Batch, d.InC, d.InH, d.InW)
	return tensor.Col2ImInto(c.dImg, c.dCols, d)
}

// backwardParams is the half of Backward that accumulates dW and dB; it
// leaves the input gradient unformed (see Network.TrainBatch).
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	d := c.dims
	ohw := d.OutH * d.OutW
	// Rearrange grad [N, OutC, OH, OW] to [N*OH*OW, OutC].
	c.g = tensor.EnsureShape(c.g, d.Batch*ohw, d.OutC)
	g := c.g
	for n := 0; n < d.Batch; n++ {
		for oc := 0; oc < d.OutC; oc++ {
			src := grad.Data[(n*d.OutC+oc)*ohw:]
			for p := 0; p < ohw; p++ {
				g.Data[(n*ohw+p)*d.OutC+oc] = src[p]
			}
		}
	}
	// dW[OutC, InC*K*K] += gᵀ @ cols ; dB += column sums of g. Both run
	// through zeroed scratch then AddInPlace to keep the historical
	// accumulation order (float addition is order-sensitive).
	c.dWprod = tensor.EnsureShape(c.dWprod, c.OutC, c.InC*c.K*c.K)
	c.dW.AddInPlace(tensor.MatMulTransAInto(c.dWprod, g, c.cols))
	c.dBsum = tensor.EnsureShape(c.dBsum, c.OutC)
	c.dB.AddInPlace(tensor.SumRowsInto(c.dBsum, g))
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.dW, c.dB} }
