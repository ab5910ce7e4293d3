package core

import (
	"math/rand"

	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/opt"
)

// warmstart trains net serially and synchronously on the full training
// set for cfg.WarmstartEpochs epochs, in place. Downpour SGD used this to
// start distributed training from a partially converged model and soften
// the delayed-gradient problem (§II-B of the paper); every engine
// reaches it through InitialParams when cfg.WarmstartEpochs > 0.
func warmstart(net *nn.Network, cfg JobConfig, train *data.Dataset) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x57a7))
	optimizer := opt.NewAdam(cfg.LearningRate)
	local := data.NewView(train)
	for e := 0; e < cfg.WarmstartEpochs; e++ {
		local.Shuffle(rng)
		for start := 0; start < local.N(); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > local.N() {
				end = local.N()
			}
			x, labels := local.Batch(start, end)
			net.ZeroGrads()
			net.TrainBatch(x, labels)
			optimizer.Step(net.ParamTensors(), net.GradTensors())
		}
	}
}

// InitialParams is how every engine starts a fresh job: net (built from
// cfg.Builder) is initialized from cfg.Seed, warmstarted on train when
// cfg.WarmstartEpochs > 0, and its parameters are returned for
// publishing. A job resumed from a checkpoint never calls it — those
// parameters are already trained.
func InitialParams(net *nn.Network, cfg JobConfig, train *data.Dataset) []float64 {
	net.Init(rand.New(rand.NewSource(cfg.Seed)))
	if cfg.WarmstartEpochs > 0 {
		warmstart(net, cfg, train)
	}
	return net.Parameters()
}
