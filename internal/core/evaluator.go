package core

import (
	"sync"

	"vcdl/internal/data"
	"vcdl/internal/nn"
)

// Evaluator computes validation/test accuracy of a parameter vector. The
// parameter servers call it after each assimilation (§III-A). It keeps one
// private network, so its mutex makes scoring strictly one at a time,
// whichever parameter server blended the result — callers that score from
// several goroutines (RunLocal's slots) queue on it in arrival order. The
// live server does not rely on that: Distributed scores on one goroutine,
// in the order its queue fixed.
type Evaluator struct {
	mu      sync.Mutex
	net     *nn.Network
	builder func() []nn.Layer
	ds      *data.Dataset
	batch   int
}

// NewEvaluator creates an evaluator over ds. subset > 0 evaluates only the
// first subset samples (a deterministic sample for simulation speed);
// batch controls evaluation minibatch size.
func NewEvaluator(builder func() []nn.Layer, ds *data.Dataset, subset, batch int) *Evaluator {
	if batch <= 0 {
		batch = 100
	}
	use := ds
	if subset > 0 && subset < ds.N() {
		use = ds.Subset(0, subset)
	}
	return &Evaluator{net: nn.NewNetwork(builder), builder: builder, ds: use, batch: batch}
}

// clone returns an evaluator over the same samples with a network of its
// own. The two score concurrently and return the same bits: a network's
// state lies wholly in the parameters it is handed.
func (e *Evaluator) clone() *Evaluator {
	return &Evaluator{net: nn.NewNetwork(e.builder), builder: e.builder, ds: e.ds, batch: e.batch}
}

// N returns the number of samples the evaluator scores.
func (e *Evaluator) N() int { return e.ds.N() }

// Accuracy returns classification accuracy of params on the dataset. It
// scores params where they lie: the network reads them in place for the
// length of the call, without a copy, and holds no reference to them
// once it returns, so the caller may recycle the vector straight after.
// The caller must not write params while the call runs.
func (e *Evaluator) Accuracy(params []float64) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var acc float64
	e.net.WithParameters(params, func() { _, acc = e.net.Evaluate(e.ds.X, e.ds.Labels, e.batch) })
	return acc
}
