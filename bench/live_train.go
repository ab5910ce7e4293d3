package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/live"
	"vcdl/internal/opt"
	"vcdl/internal/store"
)

// liveTrainParams sizes live_train. The defaults are the reference size:
// about 20 s of training on the 2-core reference host.
type liveTrainParams struct {
	Epochs      int     `json:"epochs"`
	Subtasks    int     `json:"subtasks_per_epoch"`
	ShardSize   int     `json:"shard_samples"`
	Batch       int     `json:"batch"`
	Passes      int     `json:"local_passes"`
	LR          float64 `json:"learning_rate"`
	Alpha       float64 `json:"alpha"`
	ValSubset   int     `json:"val_subset"`
	PServers    int     `json:"pservers"`
	Target      float64 `json:"target_accuracy"`
	MinFinalAcc float64 `json:"min_final_accuracy"`
	// MinAccounted is the share of the wall clock, in per cent, that the
	// traced pass's layer self-times must cover.
	MinAccounted float64 `json:"min_budget_accounted_pct"`
	Setups       int     `json:"setup_repetitions"`
	Model        string  `json:"model"`
}

func defaultLiveTrain() liveTrainParams {
	return liveTrainParams{
		Epochs: 8, Subtasks: 50, ShardSize: 100, Batch: 25, Passes: 1, LR: 0.01, Alpha: 0.95,
		ValSubset: 120, PServers: 2, Target: 0.40, MinFinalAcc: 0.35, MinAccounted: 90, Setups: 7,
		Model: "MiniResNetSpec(3,8,1,10)",
	}
}

// trainJob is the seeded input of a live training workload.
type trainJob struct {
	corpus *data.Corpus
	spec   core.ModelSpec
	job    core.JobConfig
}

// newTrainJob generates the corpus and job from the seed alone.
func newTrainJob(seed int64, spec func(dc data.SynthConfig) core.ModelSpec, subtasks, shardSize int, tune func(*core.JobConfig)) (*trainJob, error) {
	dc := data.DefaultSynthConfig()
	dc.Seed = seed
	dc.NTrain = subtasks * shardSize
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		return nil, err
	}
	ms := spec(dc)
	builder, err := ms.Builder()
	if err != nil {
		return nil, err
	}
	job := core.DefaultJobConfig(builder)
	job.Subtasks = subtasks
	job.Seed = seed
	tune(&job)
	return &trainJob{corpus: corpus, spec: ms, job: job}, nil
}

// timedApp is the stopwatch the benchmark puts around the client
// application: it notes when each subtask's compute starts and ends.
// With one serial slot, start-to-start is one whole subtask cycle
// (request, download, compute, upload, validate, assimilate, evaluate,
// ack) as the volunteer sees it.
type timedApp struct {
	inner boinc.App
	actor string
	rec   *recorder
	mu    sync.Mutex
	start []time.Time
}

func (a *timedApp) Run(asn boinc.Assignment, inputs map[string][]byte) ([]byte, error) {
	t0 := time.Now()
	out, err := a.inner.Run(asn, inputs)
	t1 := time.Now()
	a.mu.Lock()
	a.start = append(a.start, t0)
	a.mu.Unlock()
	a.rec.add("client.app.run", a.actor, fmt.Sprintf("r%d", asn.ResultID), t0, t1)
	return out, err
}

// cyclesMs returns the start-to-start intervals in milliseconds.
func (a *timedApp) cyclesMs() []float64 {
	var ms []float64
	for i := 1; i < len(a.start); i++ {
		ms = append(ms, a.start[i].Sub(a.start[i-1]).Seconds()*1e3)
	}
	return ms
}

func liveTrainJob(p liveTrainParams, seed int64) (*trainJob, error) {
	return newTrainJob(seed, func(dc data.SynthConfig) core.ModelSpec {
		return core.MiniResNetSpec(dc.C, 8, 1, dc.Classes)
	}, p.Subtasks, p.ShardSize, func(j *core.JobConfig) {
		j.MaxEpochs, j.BatchSize, j.LocalPasses = p.Epochs, p.Batch, p.Passes
		j.LearningRate, j.Alpha, j.ValSubset = p.LR, opt.Constant{V: p.Alpha}, p.ValSubset
	})
}

func runLiveTrain(p liveTrainParams, seed int64, rec *recorder) (*pass, error) {
	out := &pass{Params: p, WorkUnit: "samples", OpName: "subtask cycle (compute start to next compute start)"}
	var (
		tj   *trainJob
		proj *project
		st   *store.Eventual
	)
	err := timeSetups(out, p.Setups, func() error {
		var err error
		tj, err = liveTrainJob(p, seed)
		if err != nil {
			return err
		}
		st = store.NewEventual(1, 0, seed)
		proj, err = startProject(live.ServerConfig{
			Job: tj.job, Spec: tj.spec, Corpus: tj.corpus, PServers: p.PServers, Store: st,
		}, rec)
		return err
	}, func() { proj.stop() })
	if err != nil {
		return nil, err
	}
	defer proj.stop()

	const actor = "c1"
	app := &timedApp{inner: core.NewTrainingApp(core.TrainParamsOf(tj.job).JobConfig()), actor: actor, rec: rec}
	cl := boinc.NewClient(actor, clientURL(proj.URL, actor, rec), 1, app)
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})

	out.mem.start()
	t0 := time.Now()
	go func() { cl.Loop(ctx); close(loopDone) }()
	<-proj.D.Done()
	t1 := time.Now()
	out.mem.stop()
	cancel()
	<-loopDone
	rec.add("workload.live_train", "", "", t0, t1)

	out.WallS = t1.Sub(t0).Seconds()
	res, rerr := proj.D.Result()
	stats := proj.D.Server().SchedStats()
	want := p.Epochs * p.Subtasks
	out.Work = float64(stats.Completions * p.ShardSize * p.Passes)
	out.OpMs = app.cyclesMs()
	out.Attempted = stats.Issued
	out.Failed = stats.Issued - stats.Completions

	final := math.NaN()
	if pt, ok := res.Curve.Last(); ok {
		final = pt.Value
	}
	out.check("job finished without error", rerr == nil, "Result() error: %v", rerr)
	out.check("every epoch closed", len(res.Epochs) == p.Epochs && stats.Completions == want,
		"%d of %d epochs, %d of %d canonical subtasks", len(res.Epochs), p.Epochs, stats.Completions, want)
	out.check("final accuracy finite and above floor", !math.IsNaN(final) && final >= p.MinFinalAcc,
		"final mean validation accuracy %.4f, floor %.2f", final, p.MinFinalAcc)
	// The curve stamps each epoch with wall hours since the job was
	// built, which includes the idle gap before the client started; the
	// last stamp is the moment the job finished, so count back from it.
	target := math.NaN()
	if last, ok := res.Curve.Last(); ok {
		if h, ok := res.Curve.TimeToReach(p.Target); ok {
			target = out.WallS - (last.Hours-h)*3600
		}
	}
	// The floor above is what fails a run that stopped learning on any
	// seed (60 seeds ended between 0.40 and 0.91). Which epoch first
	// crosses the target differs from seed to seed — one seed in 60 ended
	// at 0.39999 without crossing — and a driver may pick any seed. So
	// missing the target fails the run on the default seed only, where
	// the crossing is known (epoch 6 of 8); on another seed it is recorded
	// here and leaves the metric out.
	reached := fmt.Sprintf("reached after %.2f s", target)
	if math.IsNaN(target) {
		reached = fmt.Sprintf("not reached (final %.4f): time_to_target_s omitted", final)
	}
	out.check("accuracy target reached", !math.IsNaN(target) || seed != defaultSeed,
		"mean validation accuracy >= %.2f %s", p.Target, reached)

	out.set("core.distributed.time_to_target_s", target, 1)
	out.set("core.distributed.final_accuracy", final, 1)
	trainCounts(out, proj, st, cl)
	out.mem.report(out, stats.Completions)
	if rec != nil {
		out.Spans = rec.finish()
		ss := summarise(out.Spans)
		clientShares(out, ss, out.WallS, 1)
		serverSpans(out, ss, out.WallS)
		// Share of the wall clock the trace attributes to a layer: the
		// client's compute plus the server's handlers. The rest is HTTP,
		// JSON and the client loop between them.
		accounted := 100 * (sum(ss.selfMs["client.app.run"]) + serverMs(ss)) / 1e3 / out.WallS
		out.set("runtime.budget_accounted_pct", accounted, len(out.Spans))
		out.check("trace accounts for the wall clock", accounted >= p.MinAccounted,
			"client compute + server handlers cover %.1f %% of the timed region, %.0f %% required", accounted, p.MinAccounted)
	}
	return out, nil
}

// trainCounts files the counts a training project exposes after a run.
func trainCounts(out *pass, proj *project, st *store.Eventual, clients ...*boinc.Client) {
	srv := proj.D.Server()
	ss := srv.SchedStats()
	out.set("boinc.scheduler.issued", float64(ss.Issued), 1)
	out.set("boinc.scheduler.timeouts", float64(ss.Timeouts), 1)
	out.set("boinc.scheduler.reissued", float64(ss.Reissued), 1)
	down, up := srv.Traffic()
	out.set("boinc.server.bytes_down", float64(down), 1)
	out.set("boinc.server.bytes_up", float64(up), 1)
	out.set("boinc.server.shed", float64(srv.ShedCount()), 1)
	sst := st.Stats()
	// Every assimilation is one read-modify-write of the shared copy.
	out.set("ps.assimilations", float64(sst.Updates), 1)
	out.set("store.bytes_written", float64(sst.BytesWritten), 1)
	out.set("store.lost_updates", float64(sst.LostUpdates), 1)
	hits, loads := 0, 0
	for _, c := range clients {
		hits += c.CacheHits
		loads += c.CacheHits + c.Downloads
	}
	if loads > 0 {
		out.set("boinc.client.cache_hit_ratio", float64(hits)/float64(loads), loads)
	}
}

// clientShares files how the clients' wall clock divides between the
// application and everything else (waiting on the server, HTTP, polling).
func clientShares(out *pass, ss spanStats, wallS float64, clients int) {
	runs := ss.durMs["client.app.run"]
	share := sum(runs) / 1e3 / (wallS * float64(clients))
	out.set("core.app.run_ms", median(runs), len(runs))
	out.set("boinc.client.compute_share", share, len(runs))
	out.set("boinc.client.idle_share", 1-share, len(runs))
}

// serverMs is the total self time of the server's handler spans.
func serverMs(ss spanStats) float64 {
	return sum(ss.selfMs["server.scheduler"]) + sum(ss.selfMs["server.download"]) + sum(ss.selfMs["server.upload"])
}

// serverSpans files the handler times the middleware saw.
func serverSpans(out *pass, ss spanStats, wallS float64) {
	for _, h := range []string{"scheduler", "upload", "download"} {
		d := ss.durMs["server."+h]
		out.set("boinc.server."+h+"_handler_ms_p50", median(d), len(d))
	}
	out.set("boinc.server.busy_share", serverMs(ss)/1e3/wallS, 1)
}
