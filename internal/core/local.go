package core

import (
	"fmt"
	"sync"
	"time"

	"vcdl/internal/data"
	"vcdl/internal/metrics"
	"vcdl/internal/nn"
	"vcdl/internal/ps"
	"vcdl/internal/store"
)

// LocalConfig sizes an in-process distributed run: the paper's Pn
// (parameter servers), Cn (clients) and Tn (simultaneous subtasks per
// client), with clients realized as goroutine pools.
type LocalConfig struct {
	Clients        int
	TasksPerClient int
	PServers       int
	// Store backs the shared parameter copy; nil defaults to a strong
	// store.
	Store store.Store
}

// RunResult is the outcome of a training run.
type RunResult struct {
	// Curve holds one point per epoch: mean validation accuracy with the
	// per-epoch subtask range, against cumulative hours.
	Curve metrics.Series
	// Epochs are the per-epoch aggregates.
	Epochs []ps.EpochSummary
	// FinalParams is the server parameter copy at the end of training.
	FinalParams []float64
	// Stopped reports whether the accuracy target fired before the epoch
	// budget ran out.
	Stopped bool
}

// closeEpoch books the epoch out closed at the given cumulative hours,
// and the end state if it also ended training.
func (r *RunResult) closeEpoch(out Assimilated, hours float64) {
	r.Epochs = append(r.Epochs, out.Epoch)
	r.Curve.Add(out.Epoch.Point(hours))
	if out.Stop {
		r.Stopped = out.TargetMet
		r.FinalParams = out.Final
	}
}

// RunLocal executes a full data-parallel training job in-process: Cn×Tn
// worker slots pull subtasks, train on their shards, and hand the results
// to a Trainer over a VC-ASGD parameter-server group backed by the
// configured store. Time on the curve is real wall-clock (use the vcsim
// package for paper-scale virtual-hours experiments).
func RunLocal(cfg JobConfig, corpus *data.Corpus, lc LocalConfig) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lc.Clients < 1 {
		lc.Clients = 1
	}
	if lc.TasksPerClient < 1 {
		lc.TasksPerClient = 1
	}
	if lc.PServers < 1 {
		lc.PServers = 1
	}
	st := lc.Store
	if st == nil {
		st = store.NewStrong()
	}

	group := ps.NewGroup(lc.PServers, st, cfg.Alpha)
	if err := group.Publish(InitialParams(nn.NewNetwork(cfg.Builder), cfg, corpus.Train)); err != nil {
		return nil, err
	}
	trainer := NewTrainer(cfg, corpus.Val, group, 1)
	shards := cfg.SplitShards(corpus)
	exec := NewExecutor(cfg)

	res := &RunResult{Curve: metrics.Series{Name: fmt.Sprintf("P%dC%dT%d", lc.PServers, lc.Clients, lc.TasksPerClient)}}
	start := time.Now()

	// One goroutine per Cn×Tn slot serves every epoch. done has room for
	// a whole epoch of results, so a slot never blocks handing one back.
	type result struct {
		out Assimilated
		err error
	}
	jobs := make(chan func() result)
	done := make(chan result, len(shards))
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(jobs)
	for i := 0; i < lc.Clients*lc.TasksPerClient; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				done <- job()
			}
		}()
	}
	// The stop rule ends the loop: MaxEpochs >= 1 fires at the latest.
	for epoch := 1; ; epoch++ {
		snapshot, err := group.Current()
		if err != nil {
			return nil, err
		}
		for shard := range shards {
			jobs <- func() result {
				updated, _ := exec.Run(snapshot, shards[shard], SubtaskSeed(cfg.Seed, epoch, shard))
				out, err := trainer.Assimilate(updated, epoch)
				return result{out, err}
			}
		}
		var closed Assimilated
		for range shards {
			r := <-done
			if r.err != nil {
				return nil, r.err
			}
			if r.out.Closed {
				closed = r.out
			}
		}
		if !closed.Closed {
			return nil, fmt.Errorf("core: epoch %d closed no summary", epoch)
		}
		res.closeEpoch(closed, time.Since(start).Hours())
		if closed.Stop {
			return res, nil
		}
	}
}
