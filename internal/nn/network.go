package nn

import (
	"fmt"
	"math/rand"

	"vcdl/internal/tensor"
)

// Stateful is implemented by layers that carry non-trainable state that must
// travel with the parameter blob (e.g. batch-norm running statistics). This
// mirrors the paper's .h5 parameter file, which holds total parameters
// (4,972,746), not just the trainable subset (4,941,578).
type Stateful interface {
	State() []*tensor.Tensor
}

// State implements Stateful for BatchNorm.
func (bn *BatchNorm) State() []*tensor.Tensor {
	return []*tensor.Tensor{bn.RunningMean, bn.RunningVar}
}

// Network is a sequential stack of layers with a softmax cross-entropy
// head. A Network is not safe for concurrent use; distributed clients clone
// it (Clone) and train independently, exactly as the paper's clients train
// private model copies.
type Network struct {
	Layers []Layer
	Loss   SoftmaxCrossEntropy

	builder func() []Layer

	// Cached Params/Grads/state tensor lists. Layer tensor identity is
	// fixed at construction (layers mutate tensor *contents*, never swap
	// the tensors), so the lists are computed once and the optimizer's
	// per-step calls stop allocating.
	paramCache, gradCache, stateCache []*tensor.Tensor
}

// NewNetwork constructs a network from a builder so that the network can be
// cheaply re-instantiated (Clone) with identical architecture.
func NewNetwork(builder func() []Layer) *Network {
	return &Network{Layers: builder(), builder: builder}
}

// Init initializes all layer parameters from rng.
func (n *Network) Init(rng *rand.Rand) {
	for _, l := range n.Layers {
		l.Init(rng)
	}
}

// Clone returns an architecturally identical network carrying a deep copy
// of n's parameters and state.
func (n *Network) Clone() *Network {
	if n.builder == nil {
		panic("nn: Clone requires a network constructed with NewNetwork")
	}
	c := NewNetwork(n.builder)
	c.SetParameters(n.Parameters())
	return c
}

// Forward runs the full stack and returns the logits. Adjacent
// Dense→ReLU pairs take the fused bias+activation path, which is
// bit-identical to running the two layers separately (same operations
// in the same order, one traversal) — see Dense.forwardFused.
func (n *Network) Forward(x *tensor.Tensor, training bool) *tensor.Tensor {
	out := x
	for i := 0; i < len(n.Layers); i++ {
		if d, ok := n.Layers[i].(*Dense); ok && i+1 < len(n.Layers) {
			if r, ok := n.Layers[i+1].(*ReLU); ok {
				out = d.forwardFused(out, r)
				i++
				continue
			}
		}
		out = n.Layers[i].Forward(out, training)
	}
	return out
}

// TrainBatch runs forward + backward on one mini-batch, accumulating
// parameter gradients, and returns the mean loss and the number of correct
// predictions. Callers are responsible for ZeroGrads and the optimizer
// step.
//
// The first layer's input gradient would be dLoss/dx of the batch itself,
// which nothing reads, so a first layer that can stop at its parameter
// gradients does: a conv stem skips its g·W product and col2im scatter,
// a dense input layer its grad·Wᵀ. Parameter gradients never depend on
// the input gradient, so every accumulated bit is unchanged.
func (n *Network) TrainBatch(x *tensor.Tensor, labels []int) (loss float64, correct int) {
	logits := n.Forward(x, true)
	loss, grad, correct := n.Loss.LossAndGrad(logits, labels)
	for i := len(n.Layers) - 1; i > 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	if len(n.Layers) > 0 {
		if p, ok := n.Layers[0].(paramBackwarder); ok {
			p.backwardParams(grad)
		} else {
			n.Layers[0].Backward(grad)
		}
	}
	return loss, correct
}

// paramBackwarder is a layer that can accumulate its parameter gradients
// without forming the input gradient Backward returns.
type paramBackwarder interface {
	backwardParams(grad *tensor.Tensor)
}

// EvalBatch returns the mean loss and correct count on a batch in
// inference mode (no gradients, running statistics used).
func (n *Network) EvalBatch(x *tensor.Tensor, labels []int) (loss float64, correct int) {
	logits := n.Forward(x, false)
	loss, _, correct = n.Loss.LossAndGrad(logits, labels)
	return loss, correct
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, g := range n.GradTensors() {
		g.Zero()
	}
}

// ParamTensors returns all trainable parameter tensors in a stable
// order. The returned slice is cached and shared — callers must not
// modify it.
func (n *Network) ParamTensors() []*tensor.Tensor {
	if n.paramCache == nil {
		for _, l := range n.Layers {
			n.paramCache = append(n.paramCache, l.Params()...)
		}
	}
	return n.paramCache
}

// GradTensors returns gradient tensors aligned 1:1 with ParamTensors.
// The returned slice is cached and shared — callers must not modify it.
func (n *Network) GradTensors() []*tensor.Tensor {
	if n.gradCache == nil {
		for _, l := range n.Layers {
			n.gradCache = append(n.gradCache, l.Grads()...)
		}
	}
	return n.gradCache
}

// stateTensors returns non-trainable state tensors in a stable order.
func (n *Network) stateTensors() []*tensor.Tensor {
	if n.stateCache == nil {
		for _, l := range n.Layers {
			n.stateCache = appendState(n.stateCache, l)
		}
	}
	return n.stateCache
}

func appendState(ss []*tensor.Tensor, l Layer) []*tensor.Tensor {
	if s, ok := l.(Stateful); ok {
		ss = append(ss, s.State()...)
	}
	if r, ok := l.(*Residual); ok {
		for _, inner := range r.Body {
			ss = appendState(ss, inner)
		}
		for _, inner := range r.Proj {
			ss = appendState(ss, inner)
		}
	}
	return ss
}

// blobTensors is the full set of tensors included in the flat parameter
// blob: trainable parameters followed by non-trainable state. Built
// fresh so it never aliases the cached lists' backing arrays.
func (n *Network) blobTensors() []*tensor.Tensor {
	ps, ss := n.ParamTensors(), n.stateTensors()
	out := make([]*tensor.Tensor, 0, len(ps)+len(ss))
	return append(append(out, ps...), ss...)
}

// ParamCount returns the length of the flat parameter blob.
func (n *Network) ParamCount() int {
	c := 0
	for _, t := range n.blobTensors() {
		c += t.Size()
	}
	return c
}

// TrainableCount returns the number of trainable parameters only.
func (n *Network) TrainableCount() int {
	c := 0
	for _, t := range n.ParamTensors() {
		c += t.Size()
	}
	return c
}

// Parameters exports all parameters and state as one flat vector — the
// single value the paper stores in Redis per model.
func (n *Network) Parameters() []float64 {
	out := make([]float64, 0, n.ParamCount())
	for _, t := range n.blobTensors() {
		out = append(out, t.Data...)
	}
	return out
}

// SetParameters imports a flat vector produced by Parameters. It panics if
// the length does not match the architecture.
func (n *Network) SetParameters(flat []float64) {
	if len(flat) != n.ParamCount() {
		panic(fmt.Sprintf("nn: SetParameters got %d values, want %d", len(flat), n.ParamCount()))
	}
	off := 0
	for _, t := range n.blobTensors() {
		copy(t.Data, flat[off:off+t.Size()])
		off += t.Size()
	}
}

// WithParameters runs f with the network's parameter and state tensors
// pointing into flat, laid out as Parameters exports it, instead of
// copying flat in as SetParameters does. The tensors get their own
// storage back before WithParameters returns, so nothing the network
// keeps points into flat afterwards. f may only read the tensors — run
// the network forward in evaluation mode — since any write, a
// training-mode batch norm or an optimizer step, would land in flat.
// It panics if the length does not match the architecture.
func (n *Network) WithParameters(flat []float64, f func()) {
	ts := n.blobTensors()
	own := make([][]float64, len(ts))
	off := 0
	for i, t := range ts {
		own[i] = t.Data
		off += len(own[i])
	}
	if len(flat) != off {
		panic(fmt.Sprintf("nn: WithParameters got %d values, want %d", len(flat), off))
	}
	off = 0
	for i, t := range ts {
		end := off + len(own[i])
		t.Data = flat[off:end:end]
		off = end
	}
	defer func() {
		for i, t := range ts {
			t.Data = own[i]
		}
	}()
	f()
}

// Gradients exports the accumulated gradients (trainable slots only; state
// slots are zero-padded so the layout matches Parameters).
func (n *Network) Gradients() []float64 {
	out := make([]float64, n.ParamCount())
	off := 0
	for _, g := range n.GradTensors() {
		copy(out[off:], g.Data)
		off += g.Size()
	}
	return out
}

// Evaluate computes mean loss and accuracy on a full dataset, processing
// batchSize samples at a time. x has shape [N, ...], labels length N.
func (n *Network) Evaluate(x *tensor.Tensor, labels []int, batchSize int) (loss, acc float64) {
	total := x.Dim(0)
	if total == 0 {
		return 0, 0
	}
	if batchSize <= 0 {
		batchSize = total
	}
	sampleSize := x.Size() / total
	correct := 0
	lossSum := 0.0
	for start := 0; start < total; start += batchSize {
		end := start + batchSize
		if end > total {
			end = total
		}
		shape := append([]int{end - start}, x.Shape()[1:]...)
		batch := tensor.FromSlice(x.Data[start*sampleSize:end*sampleSize], shape...)
		l, c := n.EvalBatch(batch, labels[start:end])
		lossSum += l * float64(end-start)
		correct += c
	}
	return lossSum / float64(total), float64(correct) / float64(total)
}
