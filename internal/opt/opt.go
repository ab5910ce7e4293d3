// Package opt provides the training clients' optimizer, Adam (the paper's
// client-side optimizer, used with a constant learning rate of 0.001 and
// no momentum tweaks), and the schedules of the VC-ASGD α
// hyperparameter.
package opt

import (
	"fmt"
	"math"

	"vcdl/internal/tensor"
)

// Adam implements Kingma & Ba's Adam with bias correction.
type Adam struct {
	Rate, Beta1, Beta2, Eps float64

	t    int
	m, v [][]float64
}

// NewAdam returns Adam with the standard defaults (β1=0.9, β2=0.999,
// ε=1e-8) and the given learning rate. The paper uses lr=0.001.
func NewAdam(lr float64) *Adam {
	return &Adam{Rate: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update: params[i] is updated using grads[i]. Adam keeps
// per-slot moments keyed by position, so an instance must always be
// stepped with the same tensor lists.
func (a *Adam) Step(params, grads []*tensor.Tensor) {
	checkAligned(params, grads)
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, p.Size())
			a.v[i] = make([]float64, p.Size())
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		m, v, g := a.m[i], a.v[i], grads[i].Data
		for j := range g {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g[j]
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g[j]*g[j]
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.Data[j] -= a.Rate * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// Reset returns the optimizer to its freshly-constructed state — step
// count zero, momenta cleared — while keeping the allocated moment
// storage for reuse. A Reset Adam stepped with the same tensor lists is
// bit-identical to a NewAdam, which is what lets the executor's scratch
// arena reuse one optimizer across subtasks.
func (a *Adam) Reset() {
	a.t = 0
	for _, m := range a.m {
		for j := range m {
			m[j] = 0
		}
	}
	for _, v := range a.v {
		for j := range v {
			v[j] = 0
		}
	}
}

func checkAligned(params, grads []*tensor.Tensor) {
	if len(params) != len(grads) {
		panic(fmt.Sprintf("opt: %d params but %d grads", len(params), len(grads)))
	}
	for i := range params {
		if params[i].Size() != grads[i].Size() {
			panic(fmt.Sprintf("opt: param %d size %d != grad size %d", i, params[i].Size(), grads[i].Size()))
		}
	}
}
