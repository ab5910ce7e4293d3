package main

import "vcdl/internal/exp"

// workloads are the benchmark's four sets of inputs. Between them every
// layer is stressed by one workload and bypassed by another, so a gain
// claimed for a layer has a workload on which the prediction is "no
// change".
var workloads = []*workload{
	{
		Name:   "live_train",
		Why:    "the deployment path users run (server + one client daemon over loopback HTTP): tensor/nn/opt/executor do about half the work, the per-assimilation evaluator a quarter; scheduler, wire and HTTP almost none",
		Probes: []string{"tensor", "nn.train", "nn.eval", "nn.new", "opt", "data", "executor", "evaluator", "wire", "ps", "store", "obs"},
		run:    func(seed int64, rec *recorder) (*pass, error) { return runLiveTrain(defaultLiveTrain(), seed, rec) },
		probeEnv: func(seed int64) (*probeEnv, error) {
			p := defaultLiveTrain()
			tj, err := liveTrainJob(p, seed)
			if err != nil {
				return nil, err
			}
			return trainEnv(seed, tj.job, tj.corpus)
		},
	},
	{
		Name:   "assim_storm",
		Why:    "parameter servers saturated by results (the paper's Fig. 3 regime): megabyte uploads and no client math, so wire decode, validate, ps, store, evaluator and the upload handler do all the work; training kernels and the scheduler queue none",
		Probes: []string{"nn.eval", "nn.new", "data", "evaluator", "wire", "ps", "store", "obs"},
		run:    func(seed int64, rec *recorder) (*pass, error) { return runAssimStorm(defaultAssimStorm(), seed, rec) },
		probeEnv: func(seed int64) (*probeEnv, error) {
			tj, err := assimStormJob(defaultAssimStorm(), seed)
			if err != nil {
				return nil, err
			}
			return trainEnv(seed, tj.job, tj.corpus)
		},
	},
	{
		Name:     "sched_open",
		Why:      "zero math and zero parameter bytes under a 5 000-workunit backlog, closed loop then open loop from due times: the scheduler's O(pending) scans, JSON and HTTP do all the work, so a sublinear scheduler must show here and nowhere else",
		Probes:   []string{"sched", "obs"},
		run:      func(seed int64, rec *recorder) (*pass, error) { return runSchedOpen(defaultSchedOpen(), seed, rec) },
		probeEnv: func(seed int64) (*probeEnv, error) { return &probeEnv{seed: seed}, nil },
	},
	{
		Name:   "sim_fleet",
		Why:    "what simulator users wait for: the same math kernels reached through core.Backend/vcsim/sim with 1000 virtual clients, replication and deadline expiry, no HTTP and no wire; its result is bit-deterministic, so it is also the strictest output check",
		Probes: []string{"tensor", "nn.train", "nn.eval", "opt", "data", "executor", "evaluator", "ps", "store", "sim", "obs"},
		run:    func(seed int64, rec *recorder) (*pass, error) { return runSimFleet(defaultSimFleet(), seed, rec) },
		probeEnv: func(seed int64) (*probeEnv, error) {
			p := defaultSimFleet()
			job, corpus, err := exp.ScaleWorkload(seed, p.Clients, p.Epochs)
			if err != nil {
				return nil, err
			}
			return trainEnv(seed, job, corpus)
		},
	},
}
