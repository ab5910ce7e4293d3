package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"vcdl/internal/core"
	"vcdl/internal/exp"
)

// simFleetParams sizes sim_fleet: one simulator run of the scale grid's
// workload, which is what a user of exp.Run waits for.
type simFleetParams struct {
	Clients     int     `json:"virtual_clients"`
	Epochs      int     `json:"epochs"`
	PServers    int     `json:"pservers"`
	TasksPer    int     `json:"tasks_per_client"`
	Replication int     `json:"replication"`
	Preempt     float64 `json:"preempt_probability"`
	Backend     string  `json:"backend"`
	Setups      int     `json:"setup_repetitions"`
}

func defaultSimFleet() simFleetParams {
	return simFleetParams{Clients: 1000, Epochs: 4, PServers: 4, TasksPer: 4, Replication: 4, Preempt: 0.05, Backend: "cached", Setups: 41}
}

// assimsPerOp is how many consecutive canonical assimilations make one
// operation of the latency metric.
const assimsPerOp = 10

// spanBackendName is the base backend the traced pass registers: the real
// backend behind a stopwatch.
const spanBackendName = "benchspan"

var (
	registerSpanBackend sync.Once
	// spanBackendRec is where the registered backend records. A factory
	// takes no arguments of ours, so the current recorder has to live in
	// a package variable; only one workload runs at a time.
	spanBackendRec *recorder
)

// spanBackend forwards to the real backend and times every Wait, which is
// where the inline backends do the math.
type spanBackend struct {
	core.Backend
	rec *recorder
}

type spanFuture struct {
	core.Future
	rec  *recorder
	ref  string
	done bool
}

func (f *spanFuture) Wait() ([]float64, core.ExecStats) {
	if f.done {
		return f.Future.Wait()
	}
	t0 := time.Now()
	p, s := f.Future.Wait()
	f.rec.add("core.backend.wait", "sim", f.ref, t0, time.Now())
	f.done = true
	return p, s
}

func (b *spanBackend) wrap(t core.Subtask, f core.Future) core.Future {
	return &spanFuture{Future: f, rec: b.rec, ref: fmt.Sprintf("e%ds%d", t.Epoch, t.Shard)}
}

func (b *spanBackend) Launch(t core.Subtask) core.Future { return b.wrap(t, b.Backend.Launch(t)) }

func (b *spanBackend) LaunchBatch(ts []core.Subtask) []core.Future {
	futs := core.LaunchBatch(b.Backend, ts)
	for i := range futs {
		futs[i] = b.wrap(ts[i], futs[i])
	}
	return futs
}

func runSimFleet(p simFleetParams, seed int64, rec *recorder) (*pass, error) {
	out := &pass{Params: p, WorkUnit: "samples", OpName: "wall time per 10 consecutive canonical assimilations"}
	backend := p.Backend
	if rec != nil {
		registerSpanBackend.Do(func() {
			core.RegisterBackend(spanBackendName, func(cfg core.JobConfig, workers int) core.Backend {
				inner, err := core.NewBackend("real", cfg, workers)
				if err != nil {
					panic(err) // "real" is always registered
				}
				return &spanBackend{Backend: inner, rec: spanBackendRec}
			})
		})
		spanBackendRec = rec
		backend = spanBackendName + "+" + p.Backend
	}
	// The observer is the user-visible progress stream of a simulator
	// run; wall-stamping it costs one clock read per assimilation.
	var stamps []time.Time
	observer := exp.ObserverFuncs{Assimilate: func(exp.AssimEvent) { stamps = append(stamps, time.Now()) }}
	var (
		spec      *exp.Spec
		shardSize int
		passes    int
	)
	err := timeSetups(out, p.Setups, func() error {
		job, corpus, err := exp.ScaleWorkload(seed, p.Clients, p.Epochs)
		if err != nil {
			return err
		}
		shardSize, passes = corpus.Train.N()/job.Subtasks, job.LocalPasses
		spec, err = exp.New(job, corpus,
			exp.Topology(p.PServers, p.Clients, p.TasksPer), exp.Replicate(p.Replication),
			exp.WithBackend(backend), exp.Preempt(p.Preempt), exp.Seed(seed), exp.Observe(observer))
		return err
	}, func() {})
	if err != nil {
		return nil, err
	}

	out.mem.start()
	t0 := time.Now()
	res, err := exp.Run(spec)
	t1 := time.Now()
	out.mem.stop()
	if err != nil {
		return nil, err
	}
	rec.add("vcsim.run", "sim", "", t0, t1)
	rec.add("workload.sim_fleet", "", "", t0, t1)

	out.WallS = t1.Sub(t0).Seconds()
	want := p.Clients * p.Epochs // one subtask per client per epoch
	canonical := len(stamps)
	out.Work = float64(canonical * shardSize * passes)
	// A single gap is one evaluation plus whatever events the loop
	// happened to process before it, so the operation is a short run of
	// them. The cached backend computes an epoch's subtasks in one burst,
	// which lands in one gap per epoch: the median sees the assimilation
	// path, work_per_s the whole run.
	for i, prev := assimsPerOp, t0; i <= canonical; i += assimsPerOp {
		out.OpMs = append(out.OpMs, stamps[i-1].Sub(prev).Seconds()*1e3)
		prev = stamps[i-1]
	}
	out.Attempted = want
	out.Failed = want - canonical
	final := math.NaN()
	if pt, ok := res.Curve.Last(); ok {
		final = pt.Value
	}
	out.check("every epoch closed", len(res.Epochs) == p.Epochs && canonical == want,
		"%d of %d epochs, %d of %d canonical workunits", len(res.Epochs), p.Epochs, canonical, want)
	out.check("final accuracy finite", !math.IsNaN(final) && final >= 0 && final <= 1, "final mean validation accuracy %.4f", final)
	// Everything the run decided, bit for bit: the traced and untraced
	// pass of one seed must agree on it.
	c := res.Compute
	out.Sig = fmt.Sprintf("hours=%x acc=%x issued=%d timeouts=%d reissued=%d launched=%d computed=%d hits=%d misses=%d",
		math.Float64bits(res.Hours), math.Float64bits(final), res.Issued, res.Timeouts, res.Reissued,
		c.Launched, c.Computed, c.CacheHits, c.CacheMisses)
	out.Notes = append(out.Notes, "result: "+out.Sig)

	out.set("core.distributed.final_accuracy", final, 1)
	out.set("vcsim.virtual_hours", res.Hours, 1)
	out.set("vcsim.wall_s_per_virtual_hour", out.WallS/res.Hours, 1)
	out.set("vcsim.assimilations", float64(canonical), 1)
	out.set("boinc.scheduler.issued", float64(res.Issued), 1)
	out.set("boinc.scheduler.timeouts", float64(res.Timeouts), 1)
	out.set("boinc.scheduler.reissued", float64(res.Reissued), 1)
	out.set("core.backend.computed", float64(c.Computed), 1)
	if n := c.CacheHits + c.CacheMisses; n > 0 {
		out.set("core.backend.cache_hit_ratio", float64(c.CacheHits)/float64(n), n)
	}
	out.set("ps.assimilations", float64(res.StoreStats.Updates), 1)
	out.set("store.bytes_written", float64(res.StoreStats.BytesWritten), 1)
	out.set("store.lost_updates", float64(res.StoreStats.LostUpdates), 1)
	out.mem.report(out, canonical)
	if rec != nil {
		out.Spans = rec.finish()
		ss := summarise(out.Spans)
		wait := sum(ss.durMs["core.backend.wait"]) / 1e3
		out.set("core.backend.wait_s", wait, len(ss.durMs["core.backend.wait"]))
		// What is left of the run once the subtask math is taken out:
		// the event loop, the scheduler, assimilation and the
		// per-assimilation evaluation, all on the one simulator thread.
		out.set("vcsim.self_s", sum(ss.selfMs["vcsim.run"])/1e3, 1)
	}
	return out, nil
}
