package core

import (
	"sync"
	"sync/atomic"

	"vcdl/internal/data"
	"vcdl/internal/ps"
)

// Trainer is the parameter-server side of a training job (§III-A): it
// blends each canonical result into the shared server copy (VC-ASGD,
// Equation 1), scores the copy on the validation set, averages the scores
// per epoch and decides when training stops. RunLocal, Distributed and
// vcsim all drive this one loop, so the simulator runs production code,
// not a model of it.
type Trainer struct {
	group *ps.Group
	eval  *Evaluator

	// mu makes recording a score and ruling on the epoch it closes one
	// step, so concurrent results cannot slip past a stop.
	mu      sync.Mutex
	tracker *ps.EpochTracker
	stop    ps.StopCriterion
	stopped atomic.Bool
}

// Assimilated is what one result did to the job.
type Assimilated struct {
	// Accuracy is the validation accuracy recorded for the result and
	// Params the server copy it was measured on (ScoreAndRecord only:
	// nil from Assimilate, which releases that copy, and from Record).
	Accuracy float64
	Params   []float64
	// Epoch summarizes the epoch this result closed, if Closed.
	Epoch  ps.EpochSummary
	Closed bool
	// Stop reports that the closed epoch ended training; one result per
	// job sees it. TargetMet tells the accuracy target from the epoch
	// budget; Final is the server copy at the end (Assimilate only).
	Stop, TargetMet bool
	Final           []float64
}

// NewTrainer creates the job loop over group, whose shared copy the
// caller has published. The first epoch to close is startEpoch: 1, or
// the checkpoint's epoch + 1 on resume.
func NewTrainer(cfg JobConfig, val *data.Dataset, group *ps.Group, startEpoch int) *Trainer {
	return &Trainer{
		group:   group,
		eval:    NewEvaluator(cfg.Builder, val, cfg.ValSubset, cfg.BatchSize*4),
		tracker: ps.NewEpochTrackerAt(cfg.Subtasks, startEpoch),
		stop:    ps.StopCriterion{TargetAccuracy: cfg.TargetAccuracy, MaxEpochs: cfg.MaxEpochs},
	}
}

// Epoch returns the epoch currently open (1-based).
func (t *Trainer) Epoch() int { return t.tracker.Epoch() }

// Score returns the validation accuracy of params.
func (t *Trainer) Score(params []float64) float64 { return t.eval.Accuracy(params) }

// Assimilate handles one canonical result trained from epoch's snapshot:
// Blend, then ScoreAndRecord on the held read-back, which it releases
// before it returns, so Params in the result is nil. All but the
// recording runs outside mu, so results on different parameter servers
// overlap. A result that arrives after Stop is dropped.
func (t *Trainer) Assimilate(update []float64, epoch int) (Assimilated, error) {
	cur, err := t.Blend(update, epoch)
	if cur.Params == nil {
		return Assimilated{}, err
	}
	defer cur.Release()
	out, err := t.ScoreAndRecord(cur.Params)
	out.Params = nil
	return out, err
}

// Blend is the first half of Assimilate: update the server copy on the
// next parameter server and hold the copy read back after it. The caller
// scores that, and then releases it; until then the store keeps its
// bytes as they are. Blend returns the zero Held once training has
// stopped. After Blend the result is in the model; what is left is
// grading it, which a caller that must not keep the volunteer waiting
// (Distributed) does later, in Blend order, through ScoreAndRecord.
func (t *Trainer) Blend(update []float64, epoch int) (ps.Held, error) {
	if t.stopped.Load() {
		return ps.Held{}, nil
	}
	srv := t.group.Pick()
	if err := srv.Assimilate(update, epoch); err != nil {
		return ps.Held{}, err
	}
	return srv.Hold()
}

// ScoreAndRecord is the second half: score cur, the copy Blend read
// back, and record the score. Params in the result is cur itself.
func (t *Trainer) ScoreAndRecord(cur []float64) (Assimilated, error) {
	out := t.Record(t.Score(cur), nil)
	out.Params = cur
	var err error
	if out.Stop {
		// Every result was blended before it was recorded, so this is the
		// end state even if other servers wrote after cur was read.
		out.Final, err = t.group.Current()
	}
	return out, err
}

// Record is the lower entry: it books an accuracy the caller scored
// itself (vcsim's ablation rules keep their server copy outside the
// store) and runs the same close-epoch tail. amend, when non-nil, rewrites
// the summary of the epoch this accuracy closes before the stop rule sees
// it; it must not call back into the Trainer.
func (t *Trainer) Record(acc float64, amend func(ps.EpochSummary) ps.EpochSummary) Assimilated {
	out := Assimilated{Accuracy: acc}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stopped.Load() {
		return out
	}
	if out.Epoch, out.Closed = t.tracker.Record(acc); !out.Closed {
		return out
	}
	if amend != nil {
		out.Epoch = amend(out.Epoch)
	}
	out.Stop = t.stop.ShouldStop(out.Epoch)
	out.TargetMet = t.stop.TargetAccuracy > 0 && out.Epoch.Mean >= t.stop.TargetAccuracy
	t.stopped.Store(out.Stop)
	return out
}
