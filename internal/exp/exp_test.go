package exp

import (
	"strings"
	"testing"

	"vcdl/internal/baseline"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/opt"
	"vcdl/internal/store"
)

// quickWorkload is a seconds-scale job/corpus for exp tests: small CNN,
// few shards, tiny corpus.
func quickWorkload(t testing.TB, seed int64, epochs int) (core.JobConfig, *data.Corpus) {
	t.Helper()
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 300, 100, 100
	dc.NoiseStd = 0.4
	dc.Seed = seed
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		t.Fatal(err)
	}
	job := core.DefaultJobConfig(nn.SmallCNNBuilder(dc.C, dc.H, dc.W, dc.Classes))
	job.Subtasks = 6
	job.MaxEpochs = epochs
	job.BatchSize = 25
	job.LocalPasses = 1
	job.LearningRate = 0.01
	job.ValSubset = 60
	job.Seed = seed
	return job, corpus
}

func TestOptionsLowerToConfig(t *testing.T) {
	job, corpus := quickWorkload(t, 1, 2)
	rule := baseline.Downpour{Scale: 0.1}
	spec, err := New(job, corpus,
		Name("lowering"),
		Topology(3, 4, 5),
		Alpha(opt.Constant{V: 0.7}),
		Epochs(7),
		Seed(42),
		Preempt(0.25),
		Timeout(123),
		StoreBackend(func() store.Store { return store.NewStrong() }),
		Rule(rule),
		RecordTest(),
		NoSticky(),
		AutoScalePS(6),
		Warmstart(1),
		WithBackend("parallel+cached"),
		WithComputeWorkers(3),
		Replicate(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	switch {
	case cfg.PServers != 3:
		t.Fatalf("PServers = %d", cfg.PServers)
	case len(cfg.ClientInstances) != 4:
		t.Fatalf("clients = %d", len(cfg.ClientInstances))
	case cfg.TasksPerClient != 5:
		t.Fatalf("TasksPerClient = %d", cfg.TasksPerClient)
	case cfg.Job.Alpha.At(1) != 0.7:
		t.Fatalf("alpha = %v", cfg.Job.Alpha.At(1))
	case cfg.Job.MaxEpochs != 7:
		t.Fatalf("MaxEpochs = %d", cfg.Job.MaxEpochs)
	case cfg.Seed != 42 || cfg.Job.Seed != 42:
		t.Fatalf("seeds = %d/%d", cfg.Seed, cfg.Job.Seed)
	case cfg.PreemptProb != 0.25:
		t.Fatalf("PreemptProb = %v", cfg.PreemptProb)
	case cfg.TimeoutSeconds != 123:
		t.Fatalf("TimeoutSeconds = %v", cfg.TimeoutSeconds)
	case cfg.Store == nil:
		t.Fatal("store not lowered")
	case cfg.Rule == nil:
		t.Fatal("rule not lowered")
	case !cfg.RecordTest || !cfg.DisableSticky || !cfg.AutoScalePS:
		t.Fatal("boolean options not lowered")
	case cfg.MaxPServers != 6:
		t.Fatalf("MaxPServers = %d", cfg.MaxPServers)
	case cfg.Job.WarmstartEpochs != 1:
		t.Fatalf("WarmstartEpochs = %d", cfg.Job.WarmstartEpochs)
	case cfg.Backend != "parallel+cached":
		t.Fatalf("Backend = %q", cfg.Backend)
	case cfg.ComputeWorkers != 3:
		t.Fatalf("ComputeWorkers = %d", cfg.ComputeWorkers)
	case cfg.Replication != 2:
		t.Fatalf("Replication = %d", cfg.Replication)
	}
	if spec.Name() != "lowering" {
		t.Fatalf("Name() = %q", spec.Name())
	}
	// The store factory must hand each lowering a private instance, so
	// sweep workers never share a mutable backend.
	if again := spec.Config(); again.Store == cfg.Store {
		t.Fatal("two lowerings share one store instance")
	}
}

func TestSpecConfigIsACopy(t *testing.T) {
	job, corpus := quickWorkload(t, 1, 2)
	spec, err := New(job, corpus, Topology(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config()
	cfg.ClientInstances[0] = cloud.ClientD
	cfg.PServers = 99
	fresh := spec.Config()
	if fresh.ClientInstances[0] == cloud.ClientD || fresh.PServers == 99 {
		t.Fatal("Config() must return an independent copy")
	}
}

func TestOptionValidation(t *testing.T) {
	job, corpus := quickWorkload(t, 1, 2)
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"bad topology", []Option{Topology(0, 3, 2)}, "topology"},
		{"bad preempt", []Option{Preempt(1.5)}, "preempt"},
		{"bad timeout", []Option{Timeout(0)}, "timeout"},
		{"nil alpha", []Option{Alpha(nil)}, "alpha"},
		{"bad epochs", []Option{Epochs(0)}, "epochs"},
		{"empty fleet", []Option{Fleet()}, "fleet"},
		{"nil observer", []Option{Observe(nil)}, "observer"},
		{"autoscale cap below pool", []Option{Topology(4, 3, 2), AutoScalePS(2)}, "MaxPServers"},
		{"unknown backend", []Option{WithBackend("bogus")}, "backend"},
		{"negative compute workers", []Option{WithComputeWorkers(-1)}, "workers"},
		{"bad replication", []Option{Replicate(0)}, "replication"},
	}
	for _, tc := range cases {
		if _, err := New(job, corpus, tc.opts...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if _, err := New(job, nil); err == nil {
		t.Error("nil corpus accepted")
	}
	bad := job
	bad.Subtasks = 0
	if _, err := New(bad, corpus); err == nil {
		t.Error("invalid job accepted")
	}
}

// TestObserverEvents checks that the observer stream is consistent with
// the final Result: one epoch event per curve point, a finish event
// carrying the returned Result, and (under preemption) preempt/timeout
// events explaining the reissues.
func TestObserverEvents(t *testing.T) {
	job, corpus := quickWorkload(t, 3, 3)
	var epochs, assims, preempts, timeouts, finishes int
	var finished *Result
	counter := ObserverFuncs{
		Epoch:      func(EpochEvent) { epochs++ },
		Assimilate: func(AssimEvent) { assims++ },
		Preempt:    func(PreemptEvent) { preempts++ },
		Timeout:    func(TimeoutEvent) { timeouts++ },
		Finish:     func(r *Result) { finishes++; finished = r },
	}
	spec, err := New(job, corpus,
		Topology(2, 3, 2),
		Preempt(0.3),
		Timeout(240),
		Observe(counter))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if epochs != len(res.Curve.Points) {
		t.Errorf("observed %d epoch events, curve has %d points", epochs, len(res.Curve.Points))
	}
	if finishes != 1 || finished != res {
		t.Errorf("finish fired %d times (result match: %v)", finishes, finished == res)
	}
	// Every epoch needs one assimilation per subtask; reissues add more.
	if assims < len(res.Curve.Points)*job.Subtasks {
		t.Errorf("observed %d assimilations, want >= %d", assims, len(res.Curve.Points)*job.Subtasks)
	}
	if preempts == 0 {
		t.Error("p=0.3 run observed no preemptions")
	}
	if timeouts == 0 || res.Timeouts == 0 {
		t.Errorf("preempted run observed %d timeout sweeps (result says %d timeouts)", timeouts, res.Timeouts)
	}
}

// TestObserverDoesNotChangeResult pins the passivity contract: attaching
// observers must not alter the Result.
func TestObserverDoesNotChangeResult(t *testing.T) {
	job, corpus := quickWorkload(t, 5, 2)
	bare, err := New(job, corpus, Topology(1, 2, 2), Preempt(0.2), Timeout(240))
	if err != nil {
		t.Fatal(err)
	}
	watched, err := New(job, corpus, Topology(1, 2, 2), Preempt(0.2), Timeout(240),
		Observe(ObserverFuncs{}, ObserverFuncs{Epoch: func(EpochEvent) {}}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(bare)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(watched)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hours != b.Hours || a.Issued != b.Issued || a.Timeouts != b.Timeouts ||
		a.Curve.FinalValue() != b.Curve.FinalValue() {
		t.Fatalf("observer changed the run: %+v vs %+v", a, b)
	}
}
