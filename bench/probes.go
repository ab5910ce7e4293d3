package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/obs"
	"vcdl/internal/opt"
	"vcdl/internal/ps"
	"vcdl/internal/sim"
	"vcdl/internal/store"
	"vcdl/internal/tensor"
	"vcdl/internal/wire"
)

// A probe times N calls of one layer's public function on the shapes and
// inputs of the workload it runs for. Probes run after the traced pass,
// on an otherwise idle process, so they give each layer's unit cost; the
// spans and counts of the pass say how often the workload pays it.

// probeBudget is how long one probe keeps calling (a variable so the
// smoke test can shorten it).
var probeBudget = 150 * time.Millisecond

// probeEnv is a workload's real input as the probes need it.
type probeEnv struct {
	seed   int64
	job    core.JobConfig
	corpus *data.Corpus
	shard  *data.Dataset
	// params is the parameter vector the server publishes for epoch 1 and
	// blob its published encoding. Probing the codec on an unseeded
	// (all-zero) vector would measure gzip on a run of zeros.
	params []float64
	blob   []byte
}

// trainEnv builds the probe input of a training workload.
func trainEnv(seed int64, job core.JobConfig, corpus *data.Corpus) (*probeEnv, error) {
	net := nn.NewNetwork(job.Builder)
	net.Init(rand.New(rand.NewSource(job.Seed)))
	params := net.Parameters()
	blob, err := wire.EncodeParams(params)
	if err != nil {
		return nil, err
	}
	return &probeEnv{seed: seed, job: job, corpus: corpus, shard: job.SplitShards(corpus)[0], params: params, blob: blob}, nil
}

// timeCalls calls fn until the budget is spent (at least 5 times) and
// returns every call's duration in seconds.
func timeCalls(fn func()) []float64 {
	fn() // warm: first call sizes scratch buffers
	var secs []float64
	for start := time.Now(); len(secs) < 5 || time.Since(start) < probeBudget; {
		t0 := time.Now()
		fn()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs
}

// timeBatched is timeCalls for calls too short for the clock: each sample
// is the mean of inner back-to-back calls.
func timeBatched(inner int, fn func()) []float64 {
	secs := timeCalls(func() {
		for i := 0; i < inner; i++ {
			fn()
		}
	})
	for i := range secs {
		secs[i] /= float64(inner)
	}
	return secs
}

// mallocsPer counts heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	fn()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

type probeOut map[string]measure

func (o probeOut) med(name string, secs []float64, scale float64) {
	o[name] = measure{V: median(secs) * scale, N: len(secs)}
}

// probeGroups maps a group name to the probe that fills its metrics. A
// workload lists the groups whose layers it exercises.
var probeGroups = map[string]func(e *probeEnv, o probeOut){
	"tensor":    probeTensor,
	"nn.train":  probeNNTrain,
	"nn.eval":   probeNNEval,
	"nn.new":    probeNNNew,
	"opt":       probeOpt,
	"data":      probeData,
	"executor":  probeExecutor,
	"evaluator": probeEvaluator,
	"wire":      probeWire,
	"ps":        probePS,
	"store":     probeStore,
	"sched":     probeSched,
	"sim":       probeSim,
	"obs":       probeObs,
}

// probeTensor times the kernels at live_train's convolution shapes: a
// batch of 25 8×8 images, 8 channels in and out, 3×3 kernels — the
// im2col matrix is [1600, 72] and the weights [72, 8].
func probeTensor(e *probeEnv, o probeOut) {
	d, err := tensor.NewConvDims(25, 8, 8, 8, 8, 3, 3, 1, 1)
	if err != nil {
		panic(err) // fixed, valid geometry
	}
	rng := rand.New(rand.NewSource(e.seed))
	rows, k, n := d.Batch*d.OutH*d.OutW, d.InC*d.KH*d.KW, d.OutC
	x := tensor.New(d.Batch, d.InC, d.InH, d.InW)
	x.RandNormal(0, 1, rng)
	cols, w, y := tensor.New(rows, k), tensor.New(k, n), tensor.New(rows, n)
	w.RandNormal(0, 1, rng)
	y.RandNormal(0, 1, rng)
	dw, dcols := tensor.New(k, n), tensor.New(rows, k)
	flops := 2 * float64(rows) * float64(k) * float64(n)
	gflops := func(name string, fn func()) {
		secs := timeBatched(20, fn)
		o[name] = measure{V: flops / median(secs) / 1e9, N: len(secs)}
	}
	o.med("tensor.im2col_us", timeBatched(20, func() { tensor.Im2ColInto(cols, x, d) }), 1e6)
	gflops("tensor.matmul_gflops", func() { tensor.MatMulInto(y, cols, w) })               // forward
	gflops("tensor.matmul_transa_gflops", func() { tensor.MatMulTransAInto(dw, cols, y) }) // weight gradient
	gflops("tensor.matmul_transb_gflops", func() { tensor.MatMulTransBInto(dcols, y, w) }) // input gradient
	o["tensor.kernel_allocs_op"] = measure{V: mallocsPer(200, func() { tensor.MatMulInto(y, cols, w) }), N: 200}
}

func probeNet(e *probeEnv) (*nn.Network, *tensor.Tensor, []int) {
	net := nn.NewNetwork(e.job.Builder)
	net.SetParameters(e.params)
	x, labels := e.shard.Batch(0, min(e.job.BatchSize, e.shard.N()))
	return net, x, labels
}

func probeNNTrain(e *probeEnv, o probeOut) {
	net, x, labels := probeNet(e)
	o.med("nn.train_batch_ms", timeCalls(func() { net.ZeroGrads(); net.TrainBatch(x, labels) }), 1e3)
}

func probeNNEval(e *probeEnv, o probeOut) {
	net, _, _ := probeNet(e)
	// The evaluator's own batch: four training batches, capped by the
	// validation subset.
	val := e.corpus.Val
	n := min(e.job.BatchSize*4, val.N())
	if e.job.ValSubset > 0 {
		n = min(n, e.job.ValSubset)
	}
	x, labels := val.Batch(0, n)
	o.med("nn.eval_batch_ms", timeCalls(func() { net.EvalBatch(x, labels) }), 1e3)
}

func probeNNNew(e *probeEnv, o probeOut) {
	o.med("nn.new_network_us", timeCalls(func() { nn.NewNetwork(e.job.Builder).ParamCount() }), 1e6)
}

func probeOpt(e *probeEnv, o probeOut) {
	net, x, labels := probeNet(e)
	net.ZeroGrads()
	net.TrainBatch(x, labels)
	adam := opt.NewAdam(e.job.LearningRate)
	o.med("opt.adam_step_us", timeCalls(func() { adam.Step(net.ParamTensors(), net.GradTensors()) }), 1e6)
}

func probeData(e *probeEnv, o probeOut) {
	enc, err := e.shard.Encode()
	if err != nil {
		panic(err)
	}
	o.med("data.decode_shard_us", timeCalls(func() { data.Decode(enc) }), 1e6)
	var gen []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		data.GenerateSynth(e.corpus.Config)
		gen = append(gen, time.Since(t0).Seconds())
	}
	o.med("data.generate_s", gen, 1)
}

func probeExecutor(e *probeEnv, o probeOut) {
	exec := core.NewExecutor(e.job)
	run := func() { exec.Run(e.params, e.shard, e.seed) }
	o.med("core.executor.subtask_ms", timeCalls(run), 1e3)
	o["core.executor.allocs_op"] = measure{V: mallocsPer(5, run), N: 5}
}

func probeEvaluator(e *probeEnv, o probeOut) {
	ev := core.NewEvaluator(e.job.Builder, e.corpus.Val, e.job.ValSubset, e.job.BatchSize*4)
	o.med("core.evaluator.accuracy_ms", timeCalls(func() { ev.Accuracy(e.params) }), 1e3)
}

func probeWire(e *probeEnv, o probeOut) {
	o.med("wire.encode_ms", timeCalls(func() { wire.EncodeParams(e.params) }), 1e3)
	o.med("wire.decode_ms", timeCalls(func() { wire.DecodeParams(e.blob) }), 1e3)
	o["wire.encoded_bytes"] = measure{V: float64(len(e.blob)), N: 1}
}

func probePS(e *probeEnv, o probeOut) {
	srv := ps.NewServer(0, store.NewEventual(1, 0, e.seed), e.job.Alpha)
	if err := srv.Publish(e.params); err != nil {
		panic(err)
	}
	o.med("ps.assimilate_ms", timeCalls(func() { srv.Assimilate(e.params, 1) }), 1e3)
	o.med("ps.current_ms", timeCalls(func() { srv.Current() }), 1e3)
}

func probeStore(e *probeEnv, o probeOut) {
	st := store.NewEventual(1, 0, e.seed)
	raw := wire.EncodeRaw(e.params)
	if err := st.Set(ps.DefaultKey, raw); err != nil {
		panic(err)
	}
	// An identity update: the store's own read-modify-write cost at the
	// workload's value size, without the parameter server's arithmetic.
	o.med("store.update_us", timeCalls(func() { st.Update(ps.DefaultKey, func(old []byte) []byte { return old }) }), 1e6)
}

// schedDepths are the standing backlogs the scheduler is probed at: the
// shallow queue of a training epoch and sched_open's deep one.
var schedDepths = []struct {
	depth int
	tag   string
}{{50, "d50"}, {20000, "d20k"}}

// probeSched drives a bare boinc.Scheduler the way sched_open drives the
// server — sticky-cache client, one request, one completion, one new
// workunit, so the depth stands still — and times each call separately.
func probeSched(e *probeEnv, o probeOut) {
	for _, sd := range schedDepths {
		cfg := boinc.DefaultSchedulerConfig()
		cfg.DefaultTimeout = 3600
		s := boinc.NewScheduler(cfg)
		rng := rand.New(rand.NewSource(e.seed))
		seq := 0
		add := func() {
			seq++
			s.AddWorkunit(boinc.Workunit{Name: fmt.Sprintf("wu_%07d", seq),
				InputFiles: []string{"model", fmt.Sprintf("shard_%02d", rng.Intn(64))}})
		}
		for i := 0; i < sd.depth; i++ {
			add()
		}
		s.NoteCached("c1", "model")
		for i := 0; i < 8; i++ {
			s.NoteCached("c1", fmt.Sprintf("shard_%02d", i))
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var req, done, addS, exp []float64
		now := 1.0
		cycles := 0
		for start := time.Now(); cycles < 20 || time.Since(start) < 2*probeBudget; cycles++ {
			now += 0.01
			t0 := time.Now()
			asn := s.RequestWork("c1", now, 1)
			t1 := time.Now()
			if len(asn) != 1 {
				panic(fmt.Sprintf("bench: scheduler probe got %d assignments at depth %d", len(asn), sd.depth))
			}
			s.CompleteResult(asn[0].ResultID, true, now)
			t2 := time.Now()
			add()
			t3 := time.Now()
			s.ExpireTimeouts(now)
			t4 := time.Now()
			req = append(req, t1.Sub(t0).Seconds())
			done = append(done, t2.Sub(t1).Seconds())
			addS = append(addS, t3.Sub(t2).Seconds())
			exp = append(exp, t4.Sub(t3).Seconds())
		}
		o.med("boinc.scheduler.request_work_us_"+sd.tag, req, 1e6)
		if sd.tag != "d20k" {
			continue
		}
		o.med("boinc.scheduler.complete_result_us_d20k", done, 1e6)
		o.med("boinc.scheduler.add_workunit_us_d20k", addS, 1e6)
		o.med("boinc.scheduler.expire_timeouts_us_d20k", exp, 1e6)
		// What the scheduler still holds for each workunit that is done
		// and gone from the queue.
		runtime.GC()
		runtime.ReadMemStats(&m1)
		o["boinc.scheduler.retained_bytes_per_wu"] = measure{
			V: (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(cycles), N: cycles}
		o["boinc.scheduler.request_allocs_op"] = measure{V: mallocsPer(20, func() {
			now += 0.01
			asn := s.RequestWork("c1", now, 1)
			s.CompleteResult(asn[0].ResultID, true, now)
			add()
		}), N: 20}
	}
}

func probeSim(e *probeEnv, o probeOut) {
	const events = 200000
	var rates []float64
	for i := 0; i < 3; i++ {
		eng := sim.NewEngine(e.seed)
		rng := rand.New(rand.NewSource(e.seed))
		for j := 0; j < events; j++ {
			eng.Schedule(rng.Float64()*3600, func() {})
		}
		t0 := time.Now()
		eng.Run()
		rates = append(rates, float64(eng.Executed())/time.Since(t0).Seconds())
	}
	o["sim.engine.events_per_s"] = measure{V: median(rates), N: len(rates)}
}

func probeObs(e *probeEnv, o probeOut) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench_probe_seconds", "probe", nil)
	c := reg.Counter("bench_probe_total", "probe")
	o.med("obs.histogram_observe_ns", timeBatched(10000, func() { h.Observe(0.0123) }), 1e9)
	o.med("obs.counter_inc_ns", timeBatched(10000, func() { c.Inc() }), 1e9)
}

// runProbes fills every metric of the groups the workload exercises.
func runProbes(w *workload, seed int64) (probeOut, error) {
	env, err := w.probeEnv(seed)
	if err != nil {
		return nil, err
	}
	out := probeOut{}
	for _, g := range w.Probes {
		probeGroups[g](env, out)
	}
	return out, nil
}
