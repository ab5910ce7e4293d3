package core

import (
	"math/rand"
	"sync"

	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/opt"
)

// ExecStats summarizes one subtask execution on a client.
type ExecStats struct {
	// Batches is the number of minibatch steps taken.
	Batches int
	// MeanLoss is the average training loss across steps.
	MeanLoss float64
	// TrainAccuracy is the fraction of training samples classified
	// correctly during the pass.
	TrainAccuracy float64
	// Samples is the number of training samples processed (passes ×
	// shard size).
	Samples int
}

// Executor runs training subtasks: it is the client-side compute kernel
// (the paper's per-client TensorFlow training step). An Executor is
// semantically stateless between subtasks — each Run behaves exactly as
// a volunteer client that just downloaded the model, parameters and
// data would — but physically it recycles per-worker scratch arenas
// (network, optimizer, shard view) through a sync.Pool, because
// SetParameters + Adam.Reset + View.Reset restore every observable bit
// of that state. Every model stack recycles, so the steady state
// allocates almost nothing per subtask.
type Executor struct {
	cfg     JobConfig
	scratch sync.Pool
}

// execScratch is one worker's arena: a private model clone, optimizer
// and shard view, recycled across subtasks.
type execScratch struct {
	net       *nn.Network
	optimizer *opt.Adam
	view      *data.View
}

// NewExecutor creates an executor for the job.
func NewExecutor(cfg JobConfig) *Executor {
	return &Executor{cfg: cfg}
}

// SubtaskSeed derives the seed of the subtask training shard during
// epoch from the run seed. Every engine and the client application call
// it, which is what lets a backend treat a subtask's output as a pure
// function of (epoch snapshot, shard).
func SubtaskSeed(seed int64, epoch, shard int) int64 {
	return seed ^ int64(epoch)<<20 ^ int64(shard)
}

// Run trains a private copy of the model initialized from params on the
// shard and returns the updated parameter vector. seed makes the shard
// shuffling deterministic per (subtask, epoch).
func (e *Executor) Run(params []float64, shard *data.Dataset, seed int64) ([]float64, ExecStats) {
	return e.run(params, shard, seed, e.cfg.LocalPasses, shard.N())
}

// surrogateDivisor sets the surrogate backend's subsample: one pass over
// 1/8 of the shard (at least one full batch). See Executor.RunSurrogate.
const surrogateDivisor = 8

// RunSurrogate is the surrogate compute backend's kernel: the same model,
// optimizer and seeded shuffling as Run, but a single pass over a 1/8
// subsample of the shard (clamped to at least one batch). The update is
// statistically representative — genuine gradients from the run's real
// model on real shard samples — at a fraction of the cost, but the
// accuracy trajectory is only approximate: use it for capacity and
// scenario runs where timing/traffic matter and genuine curves don't
// (DESIGN.md §8).
func (e *Executor) RunSurrogate(params []float64, shard *data.Dataset, seed int64) ([]float64, ExecStats) {
	n := shard.N() / surrogateDivisor
	if batch := e.cfg.BatchSize; n < batch {
		n = batch
	}
	if n > shard.N() {
		n = shard.N()
	}
	return e.run(params, shard, seed, 1, n)
}

// run trains passes × samples-per-pass over a seeded permutation view of
// the shard. The view never mutates the shard, so shards may be shared
// read-only across concurrent executions (the parallel backend's
// requirement), and each pass costs O(batch) gathers instead of the
// historical O(shard-bytes) Subset copy.
func (e *Executor) run(params []float64, shard *data.Dataset, seed int64, passes, perPass int) ([]float64, ExecStats) {
	sc, _ := e.scratch.Get().(*execScratch)
	if sc == nil {
		sc = &execScratch{
			net:       nn.NewNetwork(e.cfg.Builder),
			optimizer: opt.NewAdam(e.cfg.LearningRate),
			view:      &data.View{},
		}
	}
	defer e.scratch.Put(sc)
	net, optimizer, local := sc.net, sc.optimizer, sc.view
	optimizer.Reset()
	local.Reset(shard)
	net.SetParameters(params)
	rng := rand.New(rand.NewSource(seed))

	var stats ExecStats
	lossSum := 0.0
	correct := 0
	for pass := 0; pass < passes; pass++ {
		local.Shuffle(rng)
		for start := 0; start < perPass; start += e.cfg.BatchSize {
			end := start + e.cfg.BatchSize
			if end > perPass {
				end = perPass
			}
			x, labels := local.Batch(start, end)
			net.ZeroGrads()
			loss, c := net.TrainBatch(x, labels)
			optimizer.Step(net.ParamTensors(), net.GradTensors())
			lossSum += loss
			correct += c
			stats.Batches++
		}
		stats.Samples += perPass
	}
	if stats.Batches > 0 {
		stats.MeanLoss = lossSum / float64(stats.Batches)
	}
	if stats.Samples > 0 {
		stats.TrainAccuracy = float64(correct) / float64(stats.Samples)
	}
	return net.Parameters(), stats
}

// WorkCost estimates the computational weight of one subtask in abstract
// work units (forward+backward sample-passes). The cluster simulator
// divides it by instance speed to get virtual execution time.
func (e *Executor) WorkCost(shardSize int) float64 {
	return float64(e.cfg.LocalPasses) * float64(shardSize) * 3 // fwd + bwd ≈ 3× fwd
}
