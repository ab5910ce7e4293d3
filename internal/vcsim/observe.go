package vcsim

import "vcdl/internal/ps"

// Observer receives the stream of notable events of one simulated run as
// they happen in virtual time. It turns progress reporting, CSV emission
// and scenario tracing into sinks attached to the run instead of post-hoc
// Result spelunking (DESIGN.md §6).
//
// Callbacks fire synchronously inside the single-threaded event loop, so
// implementations must not block and must not call back into the
// simulation. Within one run events arrive from a single goroutine, and
// each kind arrives in virtual-time order. Across kinds the order is
// virtual time too, with one exception: when the backend has a worker
// pool (parallel, cached), a result is scored there and its OnAssimilate
// fires once the loop records that score — at the latest when its epoch
// closes or the run ends — so it can follow an OnPreempt or OnTimeout
// of a later instant. Its Hours and Queue are still those of the
// assimilation, and it always precedes the OnEpoch of the epoch it
// fills. No in-tree observer depends on the order across kinds: the
// metrics bridge's clock gauge may step back mid-run but ends at the
// run's hours (OnFinish sets it), the scenario narrator reads epochs and
// timeouts only, and the benchmark stamps assimilations only.
//
// An observer shared by several specs of an exp.Sweep is called
// concurrently from all worker goroutines and must be safe for that. An
// observer never influences the run: with or without one, the same seed
// produces the same Result — that determinism contract is what makes
// parallel sweeps (internal/exp) safe to observe.
type Observer interface {
	// OnAssimilate fires after each canonical result is folded into the
	// server parameter copy.
	OnAssimilate(AssimEvent)
	// OnEpoch fires when all subtasks of an epoch have been assimilated
	// and the epoch summary is closed.
	OnEpoch(EpochEvent)
	// OnPreempt fires when a subtask execution is chosen for preemption
	// (the instance is reclaimed; the result will never upload).
	OnPreempt(PreemptEvent)
	// OnTimeout fires when a deadline sweep expires overdue results and
	// queues them for reissue.
	OnTimeout(TimeoutEvent)
	// OnFinish fires once, after the run completed and the Result is
	// fully assembled.
	OnFinish(*Result)
}

// AssimEvent describes one assimilation.
type AssimEvent struct {
	// Epoch is the training epoch the assimilated result belongs to.
	Epoch int
	// Hours is the virtual time of the assimilation.
	Hours float64
	// Accuracy is the post-assimilation validation accuracy.
	Accuracy float64
	// Queue is the assimilation backlog left on the parameter servers.
	Queue int
}

// EpochEvent describes one completed epoch.
type EpochEvent struct {
	// Hours is the virtual time the epoch closed.
	Hours float64
	// Summary aggregates the epoch's per-subtask accuracies.
	Summary ps.EpochSummary
}

// PreemptEvent describes one preempted subtask execution.
type PreemptEvent struct {
	// Client is the reclaimed instance.
	Client string
	// Epoch and Shard identify the lost subtask.
	Epoch, Shard int
	// Hours is the virtual time the execution started; the loss surfaces
	// at the subtask deadline, when the scheduler reissues the work.
	Hours float64
}

// TimeoutEvent describes one deadline sweep that expired work.
type TimeoutEvent struct {
	// Hours is the virtual time of the sweep.
	Hours float64
	// Expired is the number of overdue results marked for reissue.
	Expired int
}

// Observers fans events out to several observers in order.
type Observers []Observer

// OnAssimilate implements Observer.
func (os Observers) OnAssimilate(e AssimEvent) {
	for _, o := range os {
		o.OnAssimilate(e)
	}
}

// OnEpoch implements Observer.
func (os Observers) OnEpoch(e EpochEvent) {
	for _, o := range os {
		o.OnEpoch(e)
	}
}

// OnPreempt implements Observer.
func (os Observers) OnPreempt(e PreemptEvent) {
	for _, o := range os {
		o.OnPreempt(e)
	}
}

// OnTimeout implements Observer.
func (os Observers) OnTimeout(e TimeoutEvent) {
	for _, o := range os {
		o.OnTimeout(e)
	}
}

// OnFinish implements Observer.
func (os Observers) OnFinish(r *Result) {
	for _, o := range os {
		o.OnFinish(r)
	}
}

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields ignore their event.
type ObserverFuncs struct {
	Assimilate func(AssimEvent)
	Epoch      func(EpochEvent)
	Preempt    func(PreemptEvent)
	Timeout    func(TimeoutEvent)
	Finish     func(*Result)
}

// OnAssimilate implements Observer.
func (o ObserverFuncs) OnAssimilate(e AssimEvent) {
	if o.Assimilate != nil {
		o.Assimilate(e)
	}
}

// OnEpoch implements Observer.
func (o ObserverFuncs) OnEpoch(e EpochEvent) {
	if o.Epoch != nil {
		o.Epoch(e)
	}
}

// OnPreempt implements Observer.
func (o ObserverFuncs) OnPreempt(e PreemptEvent) {
	if o.Preempt != nil {
		o.Preempt(e)
	}
}

// OnTimeout implements Observer.
func (o ObserverFuncs) OnTimeout(e TimeoutEvent) {
	if o.Timeout != nil {
		o.Timeout(e)
	}
}

// OnFinish implements Observer.
func (o ObserverFuncs) OnFinish(r *Result) {
	if o.Finish != nil {
		o.Finish(r)
	}
}
