package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"time"

	"vcdl/internal/boinc"
)

// schedOpenParams sizes sched_open: a bare scheduler server under a
// standing backlog, driven closed-loop, then open-loop at a reference
// rate, then (traced pass only) up a ladder of rates.
type schedOpenParams struct {
	Backlog    int       `json:"backlog_workunits"`
	ShardFiles int       `json:"shard_file_names"`
	Sticky     int       `json:"sticky_files_per_client"`
	Conns      int       `json:"connections"`
	TimeoutS   float64   `json:"result_timeout_s"`
	ClosedS    float64   `json:"closed_loop_s"`
	OpenS      float64   `json:"open_loop_s"`
	RefRate    float64   `json:"reference_rate_ops_s"`
	Ladder     []float64 `json:"ladder_ops_s"`
	RungS      float64   `json:"ladder_rung_s"`
	AbortLateS float64   `json:"abort_lateness_s"`
	// LimitP90Ms is the latency limit a ladder rung must meet to count
	// as sustained.
	LimitP90Ms float64 `json:"latency_limit_p90_ms"`
	// MinAchieved is the share of the offered rate a phase must complete
	// to count as having kept up.
	MinAchieved float64 `json:"min_achieved_share"`
	Setups      int     `json:"setup_repetitions"`
}

func defaultSchedOpen() schedOpenParams {
	return schedOpenParams{
		Backlog: 5000, ShardFiles: 64, Sticky: 8, Conns: 2, TimeoutS: 3600,
		ClosedS: 7, OpenS: 11, RefRate: 50,
		Ladder: []float64{100, 200, 400, 800, 1600}, RungS: 1.5, AbortLateS: 1, LimitP90Ms: 50, MinAchieved: 0.95, Setups: 41,
	}
}

// opsPerSample is how many consecutive closed-loop operations make one
// sample of the workload's end-to-end operation.
const opsPerSample = 10

// rung is one step of the rate ladder.
type rung struct {
	res       openResult
	p50, p90  float64
	sustained bool
}

func runSchedOpen(p schedOpenParams, seed int64, rec *recorder) (*pass, error) {
	out := &pass{Params: p, WorkUnit: "ops", OpName: fmt.Sprintf("%d consecutive closed-loop RequestWork+Upload operations acked", opsPerSample)}
	var (
		srv     *boinc.Server
		url     string
		stop    func()
		clients []*boinc.Client
		wuRng   *rand.Rand
		wuMu    sync.Mutex
		wuSeq   int
	)
	shardName := func(i int) string { return fmt.Sprintf("shard_%02d", i) }
	// nextWU draws the next workunit of the seeded stream.
	nextWU := func() boinc.Workunit {
		wuMu.Lock()
		defer wuMu.Unlock()
		wuSeq++
		return boinc.Workunit{
			Name:       fmt.Sprintf("wu_%07d", wuSeq),
			InputFiles: []string{"model", shardName(wuRng.Intn(p.ShardFiles))},
		}
	}
	err := timeSetups(out, p.Setups, func() error {
		cfg := boinc.DefaultSchedulerConfig()
		cfg.DefaultTimeout = p.TimeoutS
		srv = boinc.NewServer(cfg, nil, nil)
		wuRng, wuSeq = rand.New(rand.NewSource(seed)), 0
		srv.PutFile("model", []byte("model"))
		for i := 0; i < p.ShardFiles; i++ {
			srv.PutFile(shardName(i), []byte(shardName(i)))
		}
		for i := 0; i < p.Backlog; i++ {
			srv.AddWorkunit(nextWU())
		}
		var h http.Handler = srv
		if rec != nil {
			h = traceHandler(rec, srv)
		}
		var err error
		url, stop, err = serve(h)
		if err != nil {
			return err
		}
		// Each client holds the model and a few shard files, so every
		// work request declares a sticky cache the policy must score.
		clients = clients[:0]
		for c := 0; c < p.Conns; c++ {
			actor := fmt.Sprintf("c%d", c+1)
			cl := boinc.NewClient(actor, clientURL(url, actor, rec), 1, nil)
			sticky := []string{"model"}
			for _, i := range wuRng.Perm(p.ShardFiles)[:min(p.Sticky, p.ShardFiles)] {
				sticky = append(sticky, shardName(i))
			}
			for _, f := range sticky {
				if _, err := cl.Download(f); err != nil {
					return err
				}
			}
			clients = append(clients, cl)
		}
		return nil
	}, func() { stop() })
	if err != nil {
		return nil, err
	}
	defer stop()

	var (
		mu             sync.Mutex
		reqMs, upMs    []float64
		acks           []time.Time // when each upload was acked
		acked, errored int
		firstErr       error
	)
	okBody := []byte("ok")
	op := func(conn int) error {
		cl := clients[conn]
		err := func() error {
			a0 := time.Now()
			asns, err := cl.RequestWork(1)
			a1 := time.Now()
			if err != nil {
				return err
			}
			if len(asns) != 1 {
				return fmt.Errorf("scheduler gave %d assignments with %d pending", len(asns), p.Backlog)
			}
			ref := fmt.Sprintf("r%d", asns[0].ResultID)
			rec.add("client.request", cl.ID, ref, a0, a1)
			u0 := time.Now()
			err = cl.Upload(asns[0].ResultID, okBody, nil)
			u1 := time.Now()
			rec.add("client.upload", cl.ID, ref, u0, u1)
			rec.add("client.op", cl.ID, ref, a0, u1)
			if err != nil {
				return err
			}
			mu.Lock()
			reqMs = append(reqMs, a1.Sub(a0).Seconds()*1e3)
			upMs = append(upMs, u1.Sub(u0).Seconds()*1e3)
			acks = append(acks, u1)
			mu.Unlock()
			return nil
		}()
		mu.Lock()
		if err != nil {
			errored++
			if firstErr == nil {
				firstErr = err
			}
		} else {
			acked++
		}
		mu.Unlock()
		if err == nil {
			// The work generator: one new workunit per completion keeps
			// the backlog at its standing depth.
			srv.AddWorkunit(nextWU())
		}
		return err
	}

	// Phase A: closed loop, each connection sends its next operation as
	// soon as the last one is acked.
	out.mem.start()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(p.ClosedS * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < p.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if op(c) != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	t1 := time.Now()
	out.mem.stop()
	out.WallS = t1.Sub(t0).Seconds()
	out.Work = float64(acked)
	closedOps := acked
	// With both connections saturated the latency of a single operation
	// is bistable (the two either alternate or take turns in bursts, and
	// the median flips between one and two request times with no change in
	// throughput), so the closed loop's operation is a short run of them.
	slices.SortFunc(acks, time.Time.Compare)
	for i, prev := opsPerSample, t0; i <= len(acks); i += opsPerSample {
		out.OpMs = append(out.OpMs, acks[i-1].Sub(prev).Seconds()*1e3)
		prev = acks[i-1]
	}

	// Phase B: open loop at the reference rate.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	openDur := time.Duration(p.OpenS * float64(time.Second))
	ref := runOpenLoop(poissonSchedule(rng, p.RefRate, openDur), openDur, p.Conns,
		time.Duration(p.AbortLateS*float64(time.Second)), op)

	// Phase C: the rate ladder, traced pass only — its result is a layer
	// metric, and the untraced pass spends its time on the two phases
	// the end-to-end metrics come from.
	var rungs []rung
	if rec != nil {
		rungDur := time.Duration(p.RungS * float64(time.Second))
		for _, rate := range p.Ladder {
			r := rung{res: runOpenLoop(poissonSchedule(rng, rate, rungDur), rungDur, p.Conns,
				time.Duration(p.AbortLateS*float64(time.Second)), op)}
			r.p50 = median(r.res.LatMs)
			r.p90, _ = percentile(r.res.LatMs, 0.90)
			r.sustained = !r.res.Aborted && r.res.Errors == 0 &&
				r.res.Achieved >= p.MinAchieved*r.res.Offered && r.p90 <= p.LimitP90Ms
			rungs = append(rungs, r)
		}
	}
	tEnd := time.Now()
	rec.add("workload.sched_open", "", "", t0, tEnd)

	stats := srv.SchedStats()
	out.Attempted = acked + errored
	out.Failed = errored
	out.check("every operation acked", errored == 0 && !ref.Aborted, "%d errors (first: %v), reference phase aborted=%v", errored, firstErr, ref.Aborted)
	out.check("completions equal operations", stats.Completions == acked && stats.Pending == p.Backlog,
		"%d completions, %d acked ops, %d pending of %d standing", stats.Completions, acked, stats.Pending, p.Backlog)
	out.check("nothing shed", srv.ShedCount() == 0, "%d requests shed", srv.ShedCount())
	out.check("reference rate sustained", ref.Achieved >= p.MinAchieved*ref.Offered,
		"achieved %.1f of %.1f ops/s offered", ref.Achieved, ref.Offered)

	out.set("boinc.scheduler.issued", float64(stats.Issued), 1)
	out.set("boinc.scheduler.timeouts", float64(stats.Timeouts), 1)
	out.set("boinc.scheduler.reissued", float64(stats.Reissued), 1)
	down, up := srv.Traffic()
	out.set("boinc.server.bytes_down", float64(down), 1)
	out.set("boinc.server.bytes_up", float64(up), 1)
	out.set("boinc.server.shed", float64(srv.ShedCount()), 1)
	out.set("boinc.client.request_ms_p50", median(reqMs), len(reqMs))
	out.set("boinc.client.upload_ms_p50", median(upMs), len(upMs))
	out.set("loadgen.open_p50_ms", median(ref.LatMs), len(ref.LatMs))
	if v, ok := percentile(ref.LatMs, 0.90); ok {
		out.set("loadgen.open_p90_ms", v, len(ref.LatMs))
	}
	if v, ok := percentile(ref.LatMs, 0.99); ok {
		out.set("boinc.server.rpc_p99_ms", v, len(ref.LatMs))
	}
	out.set("loadgen.max_late_ms", ref.MaxLateMs, ref.Started)
	out.set("loadgen.achieved_share", ref.Achieved/ref.Offered, ref.Started)
	out.Notes = append(out.Notes, fmt.Sprintf("closed loop: %d ops in %.2f s over %d connections", closedOps, out.WallS, p.Conns),
		fmt.Sprintf("open loop %.0f ops/s: offered %.1f, achieved %.1f, n=%d, max_late %.1f ms",
			p.RefRate, ref.Offered, ref.Achieved, len(ref.LatMs), ref.MaxLateMs))
	out.mem.report(out, closedOps)
	if rec != nil {
		best := 0.0
		if ref.Achieved >= p.MinAchieved*ref.Offered {
			if p90, ok := percentile(ref.LatMs, 0.90); ok && p90 <= p.LimitP90Ms {
				best = p.RefRate
			}
		}
		for i, r := range rungs {
			state := "sustained"
			if !r.sustained {
				state = "OVERLOADED (not averaged into any metric)"
			}
			if r.sustained && p.Ladder[i] > best {
				best = p.Ladder[i]
			}
			out.Notes = append(out.Notes, fmt.Sprintf("ladder %.0f ops/s: achieved %.1f, p50 %.2f ms, p90 %.2f ms, n=%d, max_late %.1f ms, aborted=%v: %s",
				p.Ladder[i], r.res.Achieved, r.p50, r.p90, len(r.res.LatMs), r.res.MaxLateMs, r.res.Aborted, state))
		}
		out.set("boinc.server.max_rate_ops_s", best, len(rungs)+1)
		out.Spans = rec.finish()
		ss := summarise(out.Spans)
		serverSpans(out, ss, tEnd.Sub(t0).Seconds())
		httpOverhead(out, out.Spans)
	}
	return out, nil
}
