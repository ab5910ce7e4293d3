package ps

import (
	"sync"

	"vcdl/internal/metrics"
)

// EpochTracker aggregates per-subtask validation accuracies within an
// epoch. The paper: "After assimilating a parameter update from a training
// subtask, the parameter server computes the validation accuracy. At the
// end of an epoch, the parameter server calculates the average validation
// accuracy over all the subtasks" (§III-A); the per-epoch range of those
// accuracies is Figure 4's error bar.
type EpochTracker struct {
	mu        sync.Mutex
	subtasks  int
	epoch     int
	accs      []float64
	completed []EpochSummary
}

// EpochSummary is the aggregate of one finished epoch.
type EpochSummary struct {
	Epoch   int
	Mean    float64
	Lo, Hi  float64
	Std     float64
	Samples int
}

// Point is the epoch's marker on a training curve: the mean with the
// per-subtask range as error bar, closed at the given cumulative hours.
func (s EpochSummary) Point(hours float64) metrics.Point {
	return metrics.Point{Epoch: s.Epoch, Hours: hours, Value: s.Mean, Lo: s.Lo, Hi: s.Hi}
}

// NewEpochTrackerAt tracks epochs of the given subtask count starting at
// start (minimum 1). A fresh job starts at 1; a job restored from an
// epoch-e checkpoint continues at e+1 instead of recounting from
// scratch. StopCriterion compares against absolute epoch numbers, so a
// resumed job still stops at the original budget.
func NewEpochTrackerAt(subtasks, start int) *EpochTracker {
	if start < 1 {
		start = 1
	}
	return &EpochTracker{subtasks: subtasks, epoch: start}
}

// Epoch returns the current (1-based) epoch number.
func (t *EpochTracker) Epoch() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Record adds one subtask's validation accuracy. When the epoch's subtask
// quota is reached the epoch closes and the summary is returned with
// done=true; the tracker then advances to the next epoch.
func (t *EpochTracker) Record(acc float64) (EpochSummary, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.accs = append(t.accs, acc)
	if len(t.accs) < t.subtasks {
		return EpochSummary{}, false
	}
	lo, hi := metrics.MinMax(t.accs)
	sum := EpochSummary{
		Epoch:   t.epoch,
		Mean:    metrics.Mean(t.accs),
		Lo:      lo,
		Hi:      hi,
		Std:     metrics.Std(t.accs),
		Samples: len(t.accs),
	}
	t.completed = append(t.completed, sum)
	t.accs = t.accs[:0]
	t.epoch++
	return sum, true
}

// Completed returns summaries of all closed epochs.
func (t *EpochTracker) Completed() []EpochSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]EpochSummary(nil), t.completed...)
}

// StopCriterion reports whether training should stop: either the target
// accuracy was met by the last closed epoch or the epoch budget is
// exhausted.
type StopCriterion struct {
	TargetAccuracy float64
	MaxEpochs      int
}

// ShouldStop evaluates the criterion against the latest epoch summary.
func (c StopCriterion) ShouldStop(latest EpochSummary) bool {
	if c.TargetAccuracy > 0 && latest.Mean >= c.TargetAccuracy {
		return true
	}
	return c.MaxEpochs > 0 && latest.Epoch >= c.MaxEpochs
}
