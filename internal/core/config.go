// Package core orchestrates VCDL training jobs: it turns one deep-learning
// training job into data-parallel training subtasks (the paper's work
// generator, §III-A), executes subtasks on clients (the TensorFlow
// stand-in) and runs the parameter-server side — VC-ASGD assimilation,
// validation, epoch tracking, the stopping criterion — in one Trainer.
// A result reaches the Trainer three ways: from RunLocal's goroutine
// slots, from Distributed's BOINC-style HTTP upload hook, or from a vcsim
// event; each engine owns only its clock and how it publishes an epoch.
package core

import (
	"fmt"

	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/opt"
)

// JobConfig describes one training job. The defaults mirror the paper's
// CIFAR-10 experiment topology at laptop scale: 50 subtasks per epoch, an
// Adam client optimizer with lr=0.001, and VC-ASGD assimilation.
type JobConfig struct {
	// Builder constructs the model architecture (shared by clients and
	// the validation evaluator).
	Builder func() []nn.Layer
	// Subtasks is the number of data shards / training subtasks per epoch
	// (the paper uses 50).
	Subtasks int
	// MaxEpochs bounds training length.
	MaxEpochs int
	// TargetAccuracy stops training early when the epoch-average
	// validation accuracy reaches it (0 disables).
	TargetAccuracy float64
	// BatchSize is the client-side minibatch size.
	BatchSize int
	// LocalPasses is how many passes a client makes over its shard per
	// subtask.
	LocalPasses int
	// LearningRate is the client Adam learning rate (paper: 0.001).
	LearningRate float64
	// Alpha is the VC-ASGD hyperparameter schedule.
	Alpha opt.Schedule
	// ValSubset caps how many validation samples the parameter server
	// evaluates after each assimilation (0 = full validation set). The
	// paper evaluates the full set; the subset keeps simulations fast.
	ValSubset int
	// WarmstartEpochs runs this many serial synchronous epochs on the
	// full training set before distributing — Downpour SGD's mitigation
	// for the delayed-gradient problem (§II-B), offered here as an
	// option for VC-ASGD jobs.
	WarmstartEpochs int
	// Seed drives model initialization and all client-side shuffling.
	Seed int64
}

// DefaultJobConfig returns the paper-shaped configuration for the given
// architecture builder.
func DefaultJobConfig(builder func() []nn.Layer) JobConfig {
	return JobConfig{
		Builder:        builder,
		Subtasks:       50,
		MaxEpochs:      40,
		TargetAccuracy: 0,
		BatchSize:      25,
		LocalPasses:    1,
		LearningRate:   0.001,
		Alpha:          opt.Constant{V: 0.95},
		ValSubset:      0,
		Seed:           1,
	}
}

// Validate reports configuration errors.
func (c JobConfig) Validate() error {
	switch {
	case c.Builder == nil:
		return fmt.Errorf("core: nil Builder")
	case c.Subtasks < 1:
		return fmt.Errorf("core: Subtasks %d < 1", c.Subtasks)
	case c.MaxEpochs < 1:
		return fmt.Errorf("core: MaxEpochs %d < 1", c.MaxEpochs)
	case c.BatchSize < 1:
		return fmt.Errorf("core: BatchSize %d < 1", c.BatchSize)
	case c.LocalPasses < 1:
		return fmt.Errorf("core: LocalPasses %d < 1", c.LocalPasses)
	case c.LearningRate <= 0:
		return fmt.Errorf("core: LearningRate %v <= 0", c.LearningRate)
	case c.Alpha == nil:
		return fmt.Errorf("core: nil Alpha schedule")
	}
	return nil
}

// SplitShards partitions the corpus training set into the job's subtask
// shards.
func (c JobConfig) SplitShards(corpus *data.Corpus) []*data.Dataset {
	return corpus.Train.Split(c.Subtasks)
}
