package nn

import (
	"fmt"
	"math"
	"math/rand"

	"vcdl/internal/tensor"
)

// BatchNorm normalizes activations per feature. For rank-2 inputs [N, F] it
// normalizes each column; for NCHW inputs it normalizes each channel over
// N×H×W. Gamma and Beta are trainable; running statistics are used at
// inference time. The running statistics are intentionally part of
// Params/Grads-exported state only via gamma/beta — the moments travel with
// the struct, mirroring TensorFlow's non-trainable variables (the paper's
// model has 4,972,746 total but 4,941,578 trainable parameters for the same
// reason).
type BatchNorm struct {
	F        int
	Eps      float64
	Momentum float64

	Gamma, Beta   *tensor.Tensor
	dGamma, dBeta *tensor.Tensor

	RunningMean, RunningVar *tensor.Tensor

	// cached for backward
	xhat    *tensor.Tensor
	invStd  []float64
	shape   []int
	grouped bool // true when input was NCHW

	// out/gout are the reused forward/backward outputs, fully
	// overwritten per call.
	out, gout *tensor.Tensor
}

// NewBatchNorm creates a batch-norm layer over f features (columns for
// dense activations, channels for convolutional activations).
func NewBatchNorm(f int) *BatchNorm {
	bn := &BatchNorm{
		F: f, Eps: 1e-5, Momentum: 0.9,
		Gamma: tensor.New(f), Beta: tensor.New(f),
		dGamma: tensor.New(f), dBeta: tensor.New(f),
		RunningMean: tensor.New(f), RunningVar: tensor.New(f),
	}
	return bn
}

// Init implements Layer: gamma=1, beta=0, running stats reset.
func (bn *BatchNorm) Init(*rand.Rand) {
	bn.Gamma.Fill(1)
	bn.Beta.Zero()
	bn.RunningMean.Zero()
	bn.RunningVar.Fill(1)
}

// view returns x viewed as [groups, F, inner] index helpers: for rank-2
// inputs groups=N, inner=1 with features contiguous; for NCHW, features are
// channels and inner=H*W.
func (bn *BatchNorm) checkShape(x *tensor.Tensor) (groups, inner int) {
	switch x.Rank() {
	case 2:
		if x.Dim(1) != bn.F {
			panic(fmt.Sprintf("nn: BatchNorm(%d) got %v", bn.F, x.Shape()))
		}
		bn.grouped = false
		return x.Dim(0), 1
	case 4:
		if x.Dim(1) != bn.F {
			panic(fmt.Sprintf("nn: BatchNorm(%d) got %v", bn.F, x.Shape()))
		}
		bn.grouped = true
		return x.Dim(0), x.Dim(2) * x.Dim(3)
	default:
		panic(fmt.Sprintf("nn: BatchNorm expects rank 2 or 4, got %v", x.Shape()))
	}
}

// Forward implements Layer. The loops run over contiguous per-(sample,
// feature) slices — this layer dominates training time for small conv
// nets, so the inner loops avoid any index arithmetic per element.
func (bn *BatchNorm) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	groups, inner := bn.checkShape(x)
	bn.shape = append(bn.shape[:0], x.Shape()...)
	bn.out = tensor.EnsureShape(bn.out, x.Shape()...)
	out := bn.out
	count := float64(groups * inner)
	if bn.invStd == nil || len(bn.invStd) != bn.F {
		bn.invStd = make([]float64, bn.F)
	}
	bn.xhat = tensor.EnsureShape(bn.xhat, x.Shape()...)
	for f := 0; f < bn.F; f++ {
		var mean, variance float64
		if training {
			for g := 0; g < groups; g++ {
				row := x.Data[(g*bn.F+f)*inner : (g*bn.F+f+1)*inner]
				for _, v := range row {
					mean += v
				}
			}
			mean /= count
			for g := 0; g < groups; g++ {
				row := x.Data[(g*bn.F+f)*inner : (g*bn.F+f+1)*inner]
				for _, v := range row {
					d := v - mean
					variance += d * d
				}
			}
			variance /= count
			bn.RunningMean.Data[f] = bn.Momentum*bn.RunningMean.Data[f] + (1-bn.Momentum)*mean
			bn.RunningVar.Data[f] = bn.Momentum*bn.RunningVar.Data[f] + (1-bn.Momentum)*variance
		} else {
			mean = bn.RunningMean.Data[f]
			variance = bn.RunningVar.Data[f]
		}
		inv := 1.0 / math.Sqrt(variance+bn.Eps)
		bn.invStd[f] = inv
		gamma, beta := bn.Gamma.Data[f], bn.Beta.Data[f]
		for g := 0; g < groups; g++ {
			base := (g*bn.F + f) * inner
			xr := x.Data[base : base+inner]
			xh := bn.xhat.Data[base : base+inner]
			or := out.Data[base : base+inner]
			for i, v := range xr {
				h := (v - mean) * inv
				xh[i] = h
				or[i] = gamma*h + beta
			}
		}
	}
	return out
}

// Backward implements Layer (training-mode gradient).
func (bn *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	groups := bn.shape[0]
	inner := 1
	if bn.grouped {
		inner = bn.shape[2] * bn.shape[3]
	}
	count := float64(groups * inner)
	bn.gout = tensor.EnsureShape(bn.gout, bn.shape...)
	out := bn.gout
	for f := 0; f < bn.F; f++ {
		var sumG, sumGX float64
		for g := 0; g < groups; g++ {
			base := (g*bn.F + f) * inner
			gr := grad.Data[base : base+inner]
			xh := bn.xhat.Data[base : base+inner]
			for i, gv := range gr {
				sumG += gv
				sumGX += gv * xh[i]
			}
		}
		bn.dGamma.Data[f] += sumGX
		bn.dBeta.Data[f] += sumG
		scale := bn.Gamma.Data[f] * bn.invStd[f] / count
		for g := 0; g < groups; g++ {
			base := (g*bn.F + f) * inner
			gr := grad.Data[base : base+inner]
			xh := bn.xhat.Data[base : base+inner]
			or := out.Data[base : base+inner]
			for i, gv := range gr {
				or[i] = scale * (count*gv - sumG - xh[i]*sumGX)
			}
		}
	}
	return out
}

// Params implements Layer.
func (bn *BatchNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{bn.Gamma, bn.Beta} }

// Grads implements Layer.
func (bn *BatchNorm) Grads() []*tensor.Tensor { return []*tensor.Tensor{bn.dGamma, bn.dBeta} }
