// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (DESIGN.md §3 maps each benchmark
// to its experiment ID). Figure benchmarks run reduced-epoch versions of
// the full experiments; `go run ./cmd/experiments -epochs 40` reproduces
// the paper-length curves.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vcdl/internal/baseline"
	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/exp"
	"vcdl/internal/nn"
	"vcdl/internal/opt"
	"vcdl/internal/ps"
	"vcdl/internal/store"
	"vcdl/internal/tensor"
	"vcdl/internal/wire"
)

// benchEpochs keeps the figure benchmarks tractable; shapes are preserved
// because simulated time scales linearly in epochs.
const benchEpochs = 3

var (
	setupOnce sync.Once
	setupVal  *exp.PaperSetup
	setupErr  error
)

func paperSetup(b *testing.B) *exp.PaperSetup {
	b.Helper()
	setupOnce.Do(func() {
		setupVal, setupErr = exp.NewPaperSetup(1, benchEpochs)
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
	return setupVal
}

// sweep runs specs through the exp worker pool (all cores — the figure
// benchmarks measure the batched-evaluation harness end to end).
func sweep(b *testing.B, specs []*exp.Spec, err error) []*exp.Result {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	results, err := exp.Sweep(context.Background(), specs)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkTable1InstanceCatalog regenerates Table I and the §IV-E fleet
// cost summary (experiment T1).
func BenchmarkTable1InstanceCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := cloud.TableI()
		if len(rows) != 5 {
			b.Fatal("catalog incomplete")
		}
		fleet := append([]cloud.InstanceType{cloud.ServerInstance}, cloud.DefaultFleet(4)...)
		std := cloud.FleetCost(fleet, false)
		spot := cloud.FleetCost(fleet, true)
		if i == 0 {
			b.ReportMetric(std, "USD/h-standard")
			b.ReportMetric(spot, "USD/h-preemptible")
			b.ReportMetric(100*cloud.Savings(fleet), "%savings")
		}
	}
}

// BenchmarkFig2DistributedConfigs regenerates Figure 2 (experiment F2):
// the four PnCnTn configurations at α = 0.95.
func BenchmarkFig2DistributedConfigs(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		results, err := exp.Fig2(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, res := range results {
				b.Logf("%s: %.2fh final acc %.3f", res.Name, res.Hours, res.Curve.FinalValue())
			}
			b.ReportMetric(results[3].Hours, "hours-P5C5T2")
		}
	}
}

// BenchmarkFig3ServerImbalance regenerates Figure 3 (experiment F3):
// training time vs simultaneous subtasks for P1C3, P3C3 and P5C5.
func BenchmarkFig3ServerImbalance(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		rows, err := exp.Fig3(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range rows {
				b.Logf("%s: T2=%.2fh T4=%.2fh T8=%.2fh", row.Label, row.Hours[0], row.Hours[1], row.Hours[2])
			}
			// The paper's headline inversion: P1C3 dips at T4, rises at T8.
			p1 := rows[0]
			if !(p1.Hours[1] < p1.Hours[0] && p1.Hours[2] > p1.Hours[1]) {
				b.Fatalf("P1C3 shape broken: %v", p1.Hours)
			}
		}
	}
}

// BenchmarkFig4AlphaSweep regenerates Figure 4 (experiment F4): the
// VC-ASGD α sweep on P3C3T4, error bars included.
func BenchmarkFig4AlphaSweep(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		results, err := exp.Fig4(context.Background(), s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, res := range results {
				last, _ := res.Curve.Last()
				b.Logf("%s: final acc %.3f spread [%.3f,%.3f]", res.Name, last.Value, last.Lo, last.Hi)
			}
		}
	}
}

// BenchmarkFig5ZoomWindows regenerates Figure 5 (experiment F5) by
// re-slicing the Figure 4 curves into the two zoom windows.
func BenchmarkFig5ZoomWindows(b *testing.B) {
	s := paperSetup(b)
	results, err := exp.Fig4(context.Background(), s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range results {
			lo := exp.ZoomWindow(res.Curve, 0.45*res.Hours, 0.72*res.Hours)
			hi := exp.ZoomWindow(res.Curve, 0.72*res.Hours, res.Hours)
			if len(lo.Points)+len(hi.Points) == 0 {
				b.Fatal("zoom windows empty")
			}
		}
	}
}

// BenchmarkFig6DistributedVsSingle regenerates Figure 6 (experiment F6):
// distributed P5C5T2 with Var α against serial single-instance training.
func BenchmarkFig6DistributedVsSingle(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig6(s, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("distributed val %.3f / test %.3f; serial val %.3f / test %.3f",
				res.DistVal.FinalValue(), res.DistTest.FinalValue(),
				res.SerialVal.FinalValue(), res.SerialTest.FinalValue())
			// The paper's shape: serial synchronous training is ahead of
			// distributed at equal virtual time.
			if res.SerialVal.FinalValue() <= res.DistVal.FinalValue() {
				b.Fatal("serial baseline should lead the distributed curve")
			}
		}
	}
}

// BenchmarkStoreEventualVsStrong regenerates the §IV-D comparison
// (experiment D1): per-update cost of the two consistency models, both
// measured live on this machine and modeled at the paper's 21.2 MB blob.
func BenchmarkStoreEventualVsStrong(b *testing.B) {
	blob := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(blob)
	b.Run("eventual", func(b *testing.B) {
		st := store.NewEventual(3, 4, 1)
		st.Set("k", blob)
		b.SetBytes(int64(len(blob)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Update("k", func(old []byte) []byte { return old }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strong", func(b *testing.B) {
		st := store.NewStrong()
		st.Set("k", blob)
		b.SetBytes(int64(len(blob)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Update("k", func(old []byte) []byte { return old }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("modeled-paper-scale", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := exp.CompareStores()
			if i == 0 {
				b.ReportMetric(c.EventualUpdateSec, "s/update-eventual")
				b.ReportMetric(c.StrongUpdateSec, "s/update-strong")
				b.ReportMetric(c.Ratio, "ratio")
				b.ReportMetric(c.CIFAR10OverheadMin, "min-cifar10-overhead")
				b.ReportMetric(c.ImageNetOverheadH, "h-imagenet-overhead")
			}
		}
	})
}

// BenchmarkPreemptibleCostModel regenerates the §IV-E analysis
// (experiment E1): the binomial expected-delay model at the paper's
// parameters plus a Monte Carlo check.
func BenchmarkPreemptibleCostModel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		m := cloud.PreemptModel{P: 0.05, TaskExecSeconds: 144, TimeoutSeconds: 300}
		inc5 := m.ExpectedIncreaseSeconds(2000, 5, 2)
		m.P = 0.20
		inc20 := m.ExpectedIncreaseSeconds(2000, 5, 2)
		mc := m.SampleIncreaseSeconds(2000, 5, 2, rng)
		_ = mc
		if i == 0 {
			b.ReportMetric(inc5/60, "min-increase-p5%")
			b.ReportMetric(inc20/60, "min-increase-p20%")
		}
	}
}

// BenchmarkPreemptionEndToEnd runs the simulator with preemption enabled
// (experiment E1, simulated half): same fleet with and without reclaims.
func BenchmarkPreemptionEndToEnd(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		specs, err := exp.PreemptGridSpecs(s, []float64{0, 0.05})
		results := sweep(b, specs, err)
		base, pre := results[0], results[1]
		if i == 0 {
			b.Logf("clean %.2fh, preempted %.2fh (+%.0f min, %d timeouts)",
				base.Hours, pre.Hours, (pre.Hours-base.Hours)*60, pre.Timeouts)
			if pre.Hours <= base.Hours {
				b.Fatal("preemption should cost time")
			}
		}
	}
}

// BenchmarkAblationUpdateSchemes compares VC-ASGD against Downpour-style
// and EASGD-style server updates under preemption (experiment A1).
func BenchmarkAblationUpdateSchemes(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		specs, err := exp.AblationSpecs(s)
		results := sweep(b, specs, err)
		if i == 0 {
			for _, res := range results {
				b.Logf("%s: final acc %.3f in %.2fh (%d timeouts)",
					res.Name, res.Curve.FinalValue(), res.Hours, res.Timeouts)
			}
		}
	}
}

// BenchmarkAblationStickyFiles measures the bytes saved by BOINC's
// sticky-file caching (experiment A2).
func BenchmarkAblationStickyFiles(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		on, errOn := exp.New(s.Job, s.Corpus, exp.Topology(3, 3, 4))
		if errOn != nil {
			b.Fatal(errOn)
		}
		off, errOff := exp.New(s.Job, s.Corpus, exp.Topology(3, 3, 4), exp.NoSticky())
		results := sweep(b, []*exp.Spec{on, off}, errOff)
		resOn, resOff := results[0], results[1]
		if i == 0 {
			ratio := float64(resOff.BytesDownloaded) / float64(resOn.BytesDownloaded)
			b.Logf("sticky on %.1f MB, off %.1f MB (%.1fx)",
				float64(resOn.BytesDownloaded)/1e6, float64(resOff.BytesDownloaded)/1e6, ratio)
			b.ReportMetric(ratio, "download-inflation")
			if ratio <= 1 {
				b.Fatal("sticky files should reduce downloads")
			}
		}
	}
}

// BenchmarkAblationWarmstart compares cold-started VC-ASGD against the
// Downpour-style serial warmstart (§II-B) at equal virtual time budgets.
func BenchmarkAblationWarmstart(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		cold, errCold := exp.New(s.Job, s.Corpus, exp.Topology(3, 3, 4))
		if errCold != nil {
			b.Fatal(errCold)
		}
		warm, errWarm := exp.New(s.Job, s.Corpus, exp.Topology(3, 3, 4), exp.Warmstart(1))
		results := sweep(b, []*exp.Spec{cold, warm}, errWarm)
		rCold, rWarm := results[0], results[1]
		if i == 0 {
			b.Logf("cold: epoch1 %.3f final %.3f in %.2fh; warm: epoch1 %.3f final %.3f in %.2fh",
				rCold.Curve.Points[0].Value, rCold.Curve.FinalValue(), rCold.Hours,
				rWarm.Curve.Points[0].Value, rWarm.Curve.FinalValue(), rWarm.Hours)
			if rWarm.Curve.Points[0].Value <= rCold.Curve.Points[0].Value {
				b.Fatal("warmstart should lift early accuracy")
			}
		}
	}
}

// BenchmarkExtensionAutoscalePS measures the §III-D dynamic PS pool
// (experiment X1): fixed P1 vs autoscaled under a T8 flood.
func BenchmarkExtensionAutoscalePS(b *testing.B) {
	s := paperSetup(b)
	for i := 0; i < b.N; i++ {
		fixed, errFixed := exp.New(s.Job, s.Corpus, exp.Topology(1, 3, 8))
		if errFixed != nil {
			b.Fatal(errFixed)
		}
		auto, errAuto := exp.New(s.Job, s.Corpus, exp.Topology(1, 3, 8), exp.AutoScalePS(8))
		results := sweep(b, []*exp.Spec{fixed, auto}, errAuto)
		rFixed, rAuto := results[0], results[1]
		if i == 0 {
			b.Logf("fixed P1: %.2fh; autoscaled: %.2fh (peak %d PS, %d scale-ups)",
				rFixed.Hours, rAuto.Hours, rAuto.MaxPSUsed, rAuto.PSScaleUps)
			b.ReportMetric(rFixed.Hours-rAuto.Hours, "hours-saved")
		}
	}
}

// BenchmarkSubtaskCompute measures the compute-backend layer itself
// (experiment S1's kernel): Launch+Wait of one subtask per backend,
// including the cache-hit path that replicated/reissued copies take.
func BenchmarkSubtaskCompute(b *testing.B) {
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 100, 10, 10
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultJobConfig(nn.SmallCNNBuilder(dc.C, dc.H, dc.W, dc.Classes))
	cfg.BatchSize = 25
	net := nn.NewNetwork(cfg.Builder)
	net.Init(rand.New(rand.NewSource(5)))
	params := net.Parameters()

	for _, spec := range []string{"real", "real+cached", "parallel", "parallel+cached", "surrogate"} {
		spec := spec
		b.Run(spec, func(b *testing.B) {
			backend, err := core.NewBackend(spec, cfg, 8)
			if err != nil {
				b.Fatal(err)
			}
			defer backend.Close()
			for i := 0; i < b.N; i++ {
				// A fresh epoch per iteration: every launch is a miss.
				backend.Launch(core.Subtask{Epoch: i, Shard: 0, Seed: int64(i), Params: params, Data: corpus.Train}).Wait()
				backend.Retire(i)
			}
			b.ReportMetric(float64(backend.Stats().Computed)/float64(b.N), "computed/op")
		})
		if spec == "real+cached" || spec == "parallel+cached" {
			b.Run(spec+"-hit", func(b *testing.B) {
				backend, err := core.NewBackend(spec, cfg, 8)
				if err != nil {
					b.Fatal(err)
				}
				defer backend.Close()
				task := core.Subtask{Epoch: 1, Shard: 0, Seed: 9, Params: params, Data: corpus.Train}
				backend.Launch(task).Wait()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					backend.Launch(task).Wait()
				}
				if s := backend.Stats(); s.Computed != 1 {
					b.Fatalf("hit path recomputed: %+v", s)
				}
			})
		}
	}
}

// BenchmarkComputeBackendsFleet runs the replicated scale-grid fleet end
// to end per backend (experiment S1) and pins the tentpole speedup: with
// every subtask issued 4 times, the memoized backends must beat the
// inline real path even on a single-core host (parallel adds overlap on
// multi-core ones).
func BenchmarkComputeBackendsFleet(b *testing.B) {
	const fleet = 60
	job, corpus, err := exp.ScaleWorkload(1, fleet, 2)
	if err != nil {
		b.Fatal(err)
	}
	walls := map[string]float64{}
	for _, pt := range exp.ScaleBackends() {
		pt := pt
		pt.Clients = fleet
		name := pt.Backend
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := exp.ScaleSpec(job, corpus, pt)
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				res, err := exp.Run(spec)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					walls[name] = time.Since(start).Seconds()
					b.Logf("%s: %.2fs wall, computed %d of %d launches, %d cache hits",
						name, walls[name], res.Compute.Computed, res.Compute.Launched, res.Compute.CacheHits)
				}
			}
		})
	}
	// The gate lives in its own sub-benchmark so its log and metric are
	// actually emitted (output on a parent of sub-benchmarks is
	// dropped) and so filtered runs (-bench=...Fleet/real$) skip it
	// cleanly instead of failing on missing measurements.
	b.Run("speedup-gate", func(b *testing.B) {
		real, combo := walls["real"], walls["parallel+cached"]
		if real == 0 || combo == 0 {
			b.Skip("real or parallel+cached not measured this run")
		}
		speedup := real / combo
		b.ReportMetric(speedup, "x-speedup-parallel+cached")
		b.ReportMetric(0, "ns/op")
		b.Logf("parallel+cached speedup over real: %.2fx (full-grid record: BENCH_compute.json, >= 2x at 1k clients)", speedup)
		// The cache alone refunds ~3/4 of the replicated math, so the
		// true ratio sits near 3x even on one core; the floor is set
		// well below that so only broken memoization — not a loaded CI
		// runner — trips it.
		if speedup < 1.3 {
			b.Fatalf("parallel+cached speedup %.2fx < 1.3x on the replicated fleet — memoization regressed", speedup)
		}
	})
}

// --- Microbenchmarks for the numeric substrate ---

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(128, 128)
	y := tensor.New(128, 128)
	x.RandNormal(0, 1, rng)
	y.RandNormal(0, 1, rng)
	dst := tensor.New(128, 128)
	b.SetBytes(3 * 128 * 128 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, x, y)
	}
}

func BenchmarkTrainBatchSmallCNN(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewNetwork(nn.SmallCNNBuilder(3, 8, 8, 10))
	net.Init(rng)
	x := tensor.New(25, 3, 8, 8)
	x.RandNormal(0, 1, rng)
	labels := make([]int, 25)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		net.TrainBatch(x, labels)
	}
}

func BenchmarkTrainBatchMiniResNet(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewNetwork(nn.MiniResNetV2Builder(3, 8, 8, 8, 1, 10))
	net.Init(rng)
	x := tensor.New(25, 3, 8, 8)
	x.RandNormal(0, 1, rng)
	labels := make([]int, 25)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		net.TrainBatch(x, labels)
	}
}

// vcasgdAssimilate blends n client vectors of 100k words into one
// parameter server's copy by Equation 1.
func vcasgdAssimilate(tb benchTB, n int) {
	srv := ps.NewServer(0, store.NewStrong(), opt.Constant{V: 0.95})
	params := make([]float64, 100_000)
	srv.Publish(params)
	client := make([]float64, 100_000)
	tb.SetBytes(8 * 100_000)
	tb.ResetTimer()
	for i := 0; i < n; i++ {
		if err := srv.Assimilate(client, 1); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkVCASGDAssimilate(b *testing.B) { vcasgdAssimilate(b, b.N) }

// uploadAssimilate drives the server's whole result path n times for a
// megabyte model — scheduler request, then upload → validate →
// assimilate → evaluate — through the HTTP handlers without a socket
// (the assim_storm shape, one connection). Its B/op is what the pooled
// single-decode path is pinned by: a second decode or a dropped pool
// shows as another 1.3 MB per operation.
func uploadAssimilate(tb benchTB, n int) {
	dc := data.DefaultSynthConfig()
	dc.NTrain = 2000
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		tb.Fatal(err)
	}
	spec := core.MLPSpec(dc.C*dc.H*dc.W, []int{512, 128}, dc.Classes)
	spec.Layers = append([]core.LayerSpec{{Kind: "flatten"}}, spec.Layers...)
	builder, err := spec.Builder()
	if err != nil {
		tb.Fatal(err)
	}
	job := core.DefaultJobConfig(builder)
	job.Subtasks, job.MaxEpochs, job.ValSubset = 200, 1<<30, 16
	d, err := core.NewDistributed(job, spec, corpus, 2, store.NewEventual(1, 0, 1))
	if err != nil {
		tb.Fatal(err)
	}
	srv := d.Server()
	do := func(method, url string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(method, url, bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			tb.Fatalf("%s %s: %d %s", method, url, w.Code, w.Body)
		}
		return w
	}
	// What a client that did no training would send back: the epoch's
	// own parameter file.
	blob := do("GET", "/download?f=params_e001.h5", nil).Body.Bytes()
	ask := []byte(`{"client_id":"c1","max_tasks":1}`)
	tb.SetBytes(int64(len(blob)))
	// Scoring runs behind the ack, so at one proc the evaluator's queue
	// fills before anything is scored; the first uploads allocate the
	// vectors that then go round. They are the job's, not an upload's.
	const warmup = 10
	for i := -warmup; i < n; i++ {
		if i == 0 {
			tb.ResetTimer()
		}
		var reply boinc.WorkReply
		if err := json.Unmarshal(do("POST", "/scheduler", ask).Body.Bytes(), &reply); err != nil || len(reply.Assignments) != 1 {
			tb.Fatalf("scheduler reply: %v, %d assignments", err, len(reply.Assignments))
		}
		do("POST", fmt.Sprintf("/upload?result=%d", reply.Assignments[0].ResultID), blob)
	}
}

func BenchmarkUploadAssimilate(b *testing.B) { b.ReportAllocs(); uploadAssimilate(b, b.N) }

func BenchmarkParamCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	params := make([]float64, 100_000)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	b.SetBytes(int64(wire.RawSize(len(params))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := wire.EncodeParams(params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeParams(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardEncodeDecode(b *testing.B) {
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 100, 10, 10
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := corpus.Train.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := data.Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// executorSubtask runs n MiniResNet subtasks over a 100-sample shard.
func executorSubtask(tb benchTB, n int) {
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 100, 10, 10
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := core.DefaultJobConfig(nn.MiniResNetV2Builder(3, 8, 8, 8, 1, 10))
	cfg.BatchSize = 25
	exec := core.NewExecutor(cfg)
	net := nn.NewNetwork(cfg.Builder)
	net.Init(rand.New(rand.NewSource(5)))
	params := net.Parameters()
	tb.ResetTimer()
	for i := 0; i < n; i++ {
		exec.Run(params, corpus.Train, int64(i))
	}
}

func BenchmarkExecutorSubtask(b *testing.B) { executorSubtask(b, b.N) }

// evaluatorAccuracy runs n validation passes at live_train's shapes —
// MiniResNet of width 8 over 120 samples of [3,8,8] in batches of 100 —
// which the live server pays once per canonical result, on its
// evaluator goroutine.
func evaluatorAccuracy(tb benchTB, n int) {
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 100, 120, 10
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		tb.Fatal(err)
	}
	builder := nn.MiniResNetV2Builder(3, 8, 8, 8, 1, 10)
	ev := core.NewEvaluator(builder, corpus.Val, 120, 100)
	net := nn.NewNetwork(builder)
	net.Init(rand.New(rand.NewSource(5)))
	params := net.Parameters()
	tb.ResetTimer()
	for i := 0; i < n; i++ {
		ev.Accuracy(params)
	}
}

func BenchmarkEvaluatorAccuracy(b *testing.B) { evaluatorAccuracy(b, b.N) }

// BenchmarkSerialBaselineEpoch measures the single-instance trainer's
// per-epoch cost (experiment F6's baseline).
func BenchmarkSerialBaselineEpoch(b *testing.B) {
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 500, 100, 100
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultJobConfig(nn.SmallCNNBuilder(3, 8, 8, 10))
	cfg.BatchSize = 25
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.TrainSerial(cfg, corpus, 1); err != nil {
			b.Fatal(err)
		}
	}
}
