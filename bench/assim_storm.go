package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/live"
	"vcdl/internal/opt"
	"vcdl/internal/store"
)

// assimStormParams sizes assim_storm: Epochs × Subtasks uploads of a
// full-size parameter vector, and no client math at all.
type assimStormParams struct {
	Epochs    int    `json:"epochs"`
	Subtasks  int    `json:"subtasks_per_epoch"`
	Hidden    []int  `json:"mlp_hidden"`
	ValSubset int    `json:"val_subset"`
	PServers  int    `json:"pservers"`
	Conns     int    `json:"connections"`
	Setups    int    `json:"setup_repetitions"`
	Model     string `json:"model"`
}

func defaultAssimStorm() assimStormParams {
	return assimStormParams{
		Epochs: 12, Subtasks: 200, Hidden: []int{512, 128}, ValSubset: 16, PServers: 2, Conns: 2, Setups: 11,
		Model: "flatten + MLPSpec(192,[512,128],10)",
	}
}

// stormSpec is the wide MLP whose parameter vector makes every upload
// megabyte-sized.
func stormSpec(hidden []int) func(dc data.SynthConfig) core.ModelSpec {
	return func(dc data.SynthConfig) core.ModelSpec {
		ms := core.MLPSpec(dc.C*dc.H*dc.W, hidden, dc.Classes)
		ms.Layers = append([]core.LayerSpec{{Kind: "flatten"}}, ms.Layers...)
		return ms
	}
}

// emptyPollPause is how long a benchmark-owned loop waits after the
// scheduler had nothing for it (the other connection holds the epoch's
// last subtask) before asking again.
const emptyPollPause = 500 * time.Microsecond

// assimStormJob keeps the shards small: this workload is about the bytes
// coming back, not the data going out.
func assimStormJob(p assimStormParams, seed int64) (*trainJob, error) {
	return newTrainJob(seed, stormSpec(p.Hidden), p.Subtasks, 10, func(j *core.JobConfig) {
		j.MaxEpochs, j.ValSubset, j.Alpha = p.Epochs, p.ValSubset, opt.Constant{V: 0.95}
	})
}

func runAssimStorm(p assimStormParams, seed int64, rec *recorder) (*pass, error) {
	out := &pass{Params: p, WorkUnit: "uploads", OpName: "Upload round trip"}
	var (
		tj   *trainJob
		proj *project
		st   *store.Eventual
	)
	err := timeSetups(out, p.Setups, func() error {
		var err error
		tj, err = assimStormJob(p, seed)
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

	type opLog struct {
		epoch               int
		asked, sent, acked  time.Time
		uploadMs, requestMs float64
		downloadMs          float64
	}
	var (
		mu       sync.Mutex
		ops      []opLog
		errCount int
		firstErr error
		clients  []*boinc.Client
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		errCount++
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for i := 0; i < p.Conns; i++ {
		actor := fmt.Sprintf("c%d", i+1)
		clients = append(clients, boinc.NewClient(actor, clientURL(proj.URL, actor, rec), 1, nil))
	}

	out.mem.start()
	t0 := time.Now()
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *boinc.Client) {
			defer wg.Done()
			for {
				select {
				case <-proj.D.Done():
					return
				default:
				}
				a0 := time.Now()
				asns, err := cl.RequestWork(1)
				a1 := time.Now()
				if err != nil {
					fail(err)
					return
				}
				if len(asns) == 0 {
					time.Sleep(emptyPollPause)
					continue
				}
				asn := asns[0]
				ref := fmt.Sprintf("r%d", asn.ResultID)
				rec.add("client.request", cl.ID, ref, a0, a1)
				var sp core.SubtaskPayload
				if err := json.Unmarshal(asn.Payload, &sp); err != nil {
					fail(err)
					return
				}
				d0 := time.Now()
				blob, err := cl.Download(sp.ParamsFile)
				d1 := time.Now()
				rec.add("client.download", cl.ID, ref, d0, d1)
				if err != nil {
					fail(err)
					continue
				}
				u0 := time.Now()
				err = cl.Upload(asn.ResultID, blob, nil)
				u1 := time.Now()
				rec.add("client.upload", cl.ID, ref, u0, u1)
				rec.add("client.op", cl.ID, ref, a0, u1)
				if err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				ops = append(ops, opLog{
					epoch: sp.Epoch, asked: a1, sent: u0, acked: u1,
					requestMs: a1.Sub(a0).Seconds() * 1e3, downloadMs: d1.Sub(d0).Seconds() * 1e3,
					uploadMs: u1.Sub(u0).Seconds() * 1e3,
				})
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	t1 := time.Now()
	out.mem.stop()
	rec.add("workload.assim_storm", "", "", t0, t1)

	out.WallS = t1.Sub(t0).Seconds()
	want := p.Epochs * p.Subtasks
	sst := st.Stats()
	res, rerr := proj.D.Result()
	out.Work = float64(sst.Updates)
	out.Attempted = len(ops) + errCount
	out.Failed = errCount
	var reqMs, downMs []float64
	lastSent := map[int]time.Time{} // epoch -> start of its last upload
	firstAsk := map[int]time.Time{} // epoch -> first assignment handed out
	for _, o := range ops {
		out.OpMs = append(out.OpMs, o.uploadMs)
		reqMs = append(reqMs, o.requestMs)
		downMs = append(downMs, o.downloadMs)
		if o.sent.After(lastSent[o.epoch]) {
			lastSent[o.epoch] = o.sent
		}
		if t, ok := firstAsk[o.epoch]; !ok || o.asked.Before(t) {
			firstAsk[o.epoch] = o.asked
		}
	}
	// The last upload of an epoch generates the next one inside its
	// handler, before the ack, so the stall is measured from when that
	// upload was sent to when the first subtask of the next epoch was
	// assigned to anyone.
	var turnover []float64
	for e, sent := range lastSent {
		if next, ok := firstAsk[e+1]; ok {
			turnover = append(turnover, next.Sub(sent).Seconds()*1e3)
		}
	}

	out.check("job finished without error", rerr == nil && firstErr == nil, "Result() error: %v, first client error: %v", rerr, firstErr)
	out.check("every upload assimilated", int(sst.Updates) == want && len(ops) == want && len(res.Epochs) == p.Epochs,
		"%d assimilations, %d uploads acked, %d expected, %d of %d epochs", sst.Updates, len(ops), want, len(res.Epochs), p.Epochs)

	out.set("core.distributed.epoch_turnover_ms", median(turnover), len(turnover))
	out.set("boinc.client.request_ms_p50", median(reqMs), len(reqMs))
	out.set("boinc.client.download_ms_p50", median(downMs), len(downMs))
	out.set("boinc.client.upload_ms_p50", median(out.OpMs), len(out.OpMs))
	if v, ok := percentile(out.OpMs, 0.99); ok {
		out.set("boinc.server.rpc_p99_ms", v, len(out.OpMs))
	}
	trainCounts(out, proj, st, clients...)
	out.mem.report(out, len(ops))
	if rec != nil {
		out.Spans = rec.finish()
		ss := summarise(out.Spans)
		serverSpans(out, ss, out.WallS)
		httpOverhead(out, out.Spans)
	}
	return out, nil
}

// httpOverhead files what the wire, net/http and the client code add on
// top of the handlers: per operation, the client-observed time minus the
// server handler spans inside it.
func httpOverhead(out *pass, spans []span) {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	handlerUs := map[int]int64{} // client.op span id -> handler time beneath it
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "server.") {
			continue
		}
		for p := byID[s.Parent]; p.ID != 0; p = byID[p.Parent] {
			if p.Name == "client.op" {
				handlerUs[p.ID] += s.End - s.Start
				break
			}
		}
	}
	var over []float64
	for _, s := range spans {
		if s.Name == "client.op" {
			over = append(over, float64(s.End-s.Start-handlerUs[s.ID])/1e3)
		}
	}
	out.set("boinc.server.http_overhead_ms", median(over), len(over))
}
