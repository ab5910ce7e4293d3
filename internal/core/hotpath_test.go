package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sync"
	"testing"

	"vcdl/internal/boinc"
	"vcdl/internal/data"
	"vcdl/internal/nn"
	"vcdl/internal/tensor"
	"vcdl/internal/wire"
)

// TestExecutorScratchReuseBitIdentical pins the scratch-arena contract:
// a recycled network/optimizer/view must produce byte-identical output
// to a freshly built one, across interleaved shards and seeds.
func TestExecutorScratchReuseBitIdentical(t *testing.T) {
	cfg, shard, params := backendFixture(t)

	dc := data.DefaultSynthConfig()
	dc.Seed += 7
	dc.NTrain, dc.NVal, dc.NTest = 40, 5, 5
	corpus2, err := data.GenerateSynth(dc)
	if err != nil {
		t.Fatal(err)
	}
	shard2 := corpus2.Train

	reused := NewExecutor(cfg)
	jobs := []struct {
		shard *data.Dataset
		seed  int64
	}{{shard, 11}, {shard2, 22}, {shard, 11}, {shard, 33}, {shard2, 22}}
	for i, j := range jobs {
		// A fresh executor per job is the old no-reuse behaviour; the
		// long-lived executor hits its recycled arena from job 1 on.
		wantP, wantS := NewExecutor(cfg).Run(params, j.shard, j.seed)
		gotP, gotS := reused.Run(params, j.shard, j.seed)
		if gotS != wantS {
			t.Fatalf("job %d: stats %+v, want %+v", i, gotS, wantS)
		}
		for k := range wantP {
			if math.Float64bits(gotP[k]) != math.Float64bits(wantP[k]) {
				t.Fatalf("job %d: param %d = %v, want %v", i, k, gotP[k], wantP[k])
			}
		}
	}
}

// TestTrainingAppExecutorReuseBitIdentical is the app-level twin of the
// test above: a long-lived app (one executor, recycled scratch, shared
// by concurrent slots) uploads byte-identical results to a fresh app
// per assignment, across interleaved shards, epochs and model files.
func TestTrainingAppExecutorReuseBitIdentical(t *testing.T) {
	cfg, shard, params := backendFixture(t)
	dc := data.DefaultSynthConfig()
	encode := func(v []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	cnn := encode(EncodeSpec(SmallCNNSpec(dc.C, dc.H, dc.W, dc.Classes)))
	cnnParams := encode(wire.EncodeParams(params))
	mlpSpec := MLPSpec(dc.C*dc.H*dc.W, []int{16}, dc.Classes)
	mlpSpec.Layers = append([]LayerSpec{{Kind: "flatten"}}, mlpSpec.Layers...)
	mlp := encode(EncodeSpec(mlpSpec))
	mlpBuilder, err := mlpSpec.Builder()
	if err != nil {
		t.Fatal(err)
	}
	mlpNet := nn.NewNetwork(mlpBuilder)
	mlpNet.Init(rand.New(rand.NewSource(4)))
	mlpParams := encode(wire.EncodeParams(mlpNet.Parameters()))
	shardA := encode(shard.Encode())
	shardB := encode(shard.Subset(0, 30).Encode())

	jobs := []struct {
		epoch, shard        int
		model, params, data []byte
	}{
		{1, 0, cnn, cnnParams, shardA},
		{1, 1, cnn, cnnParams, shardB},
		{2, 0, cnn, cnnParams, shardA},
		{2, 0, mlp, mlpParams, shardA}, // a different model.json rebuilds the executor
		{2, 1, mlp, mlpParams, shardB},
		{3, 1, cnn, cnnParams, shardB}, // and back
		{1, 0, cnn, cnnParams, shardA},
	}
	run := func(app boinc.App, i int) ([]byte, error) {
		j := jobs[i]
		payload, err := json.Marshal(SubtaskPayload{Epoch: j.epoch, Shard: j.shard, ModelFile: "m", ParamsFile: "p", ShardFile: "s"})
		if err != nil {
			return nil, err
		}
		return app.Run(boinc.Assignment{Payload: payload},
			map[string][]byte{"m": j.model, "p": j.params, "s": j.data})
	}
	want := make([][]byte, len(jobs))
	for i := range jobs {
		if want[i], err = run(NewTrainingApp(cfg), i); err != nil {
			t.Fatalf("fresh app, job %d: %v", i, err)
		}
	}

	reused := NewTrainingApp(cfg)
	for i := range jobs {
		got, err := run(reused, i)
		if err != nil {
			t.Fatalf("reused app, job %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("reused app, job %d: upload differs from a fresh app's", i)
		}
	}

	// Two slots of one daemon share the app.
	got := make([][]byte, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for slot := 0; slot < 2; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := slot; i < len(jobs); i += 2 {
				got[i], errs[i] = run(reused, i)
			}
		}(slot)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("concurrent slots, job %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("concurrent slots, job %d: upload differs from a fresh app's", i)
		}
	}
}

// TestLaunchBatchEquivalence pins that the batched seam returns futures
// that resolve identically to per-subtask Launch, for every backend
// (parallel and cached implement BatchLauncher; real/surrogate go
// through the shim).
func TestLaunchBatchEquivalence(t *testing.T) {
	cfg, shard, params := backendFixture(t)
	ts := []Subtask{
		{Epoch: 0, Shard: 0, Seed: 5, Params: params, Data: shard},
		{Epoch: 0, Shard: 1, Seed: 6, Params: params, Data: shard},
		{Epoch: 0, Shard: 0, Seed: 5, Params: params, Data: shard}, // dup key: cache hit in-batch
	}
	for _, spec := range []string{"real", "cached", "real+cached", "parallel", "parallel+cached", "surrogate"} {
		seq, err := NewBackend(spec, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		bat, err := NewBackend(spec, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Launch all, then wait all — the same call pattern the batched
		// path produces, so MaxInFlight telemetry matches too.
		var want [][]float64
		var seqFuts []Future
		for _, task := range ts {
			seqFuts = append(seqFuts, seq.Launch(task))
		}
		for _, f := range seqFuts {
			p, _ := f.Wait()
			want = append(want, p)
		}
		futs := LaunchBatch(bat, ts)
		if len(futs) != len(ts) {
			t.Fatalf("%s: %d futures for %d subtasks", spec, len(futs), len(ts))
		}
		for i, f := range futs {
			got, _ := f.Wait()
			for k := range want[i] {
				if math.Float64bits(got[k]) != math.Float64bits(want[i][k]) {
					t.Fatalf("%s: batch future %d param %d = %v, want %v", spec, i, k, got[k], want[i][k])
				}
			}
		}
		seqStats, batStats := seq.Stats(), bat.Stats()
		if seqStats != batStats {
			t.Fatalf("%s: batch stats %+v, want %+v", spec, batStats, seqStats)
		}
		seq.Close()
		bat.Close()
	}
}

// TestParallelPoolSerializesKernels is the backend half of the
// nested-parallelism regression test: while a pool is alive (named, or
// as the default under bare "cached"), kernels run serially
// process-wide (the pool holds the tensor serial reservation), subtasks
// computed by pool workers never fan out, and the reservation is
// dropped at Close. The inline memo "real+cached" has no pool and never
// takes the reservation.
func TestParallelPoolSerializesKernels(t *testing.T) {
	prev := tensor.SetMaxThreads(4) // the host may be single-core; force a cap that would fan out
	defer tensor.SetMaxThreads(prev)

	// A wide MLP whose dense products are far above the kernel's
	// parallel threshold, so fan-out WOULD trigger without the pool's
	// reservation.
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 64, 8, 8
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		t.Fatal(err)
	}
	in := corpus.Train.X.Size() / corpus.Train.N()
	mlp := nn.MLPBuilder(in, []int{256, 256}, dc.Classes)
	cfg := DefaultJobConfig(func() []nn.Layer {
		return append([]nn.Layer{nn.NewFlatten()}, mlp()...)
	})
	cfg.BatchSize = 32
	net := nn.NewNetwork(cfg.Builder)
	net.Init(rand.New(rand.NewSource(1)))
	params := net.Parameters()

	for _, tc := range []struct {
		spec string
		held int // MaxThreads while the backend is live
	}{{"parallel", 1}, {"cached", 1}, {"real+cached", 4}} {
		spec := tc.spec
		b, err := NewBackend(spec, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if got := tensor.MaxThreads(); got != tc.held {
			t.Fatalf("%s: MaxThreads with live backend = %d, want %d", spec, got, tc.held)
		}
		before := tensor.KernelFanouts()
		var futs []Future
		for i := 0; i < 4; i++ {
			futs = append(futs, b.Launch(Subtask{Epoch: 0, Shard: i, Seed: int64(i), Params: params, Data: corpus.Train}))
		}
		for _, f := range futs {
			f.Wait()
		}
		if got := tensor.KernelFanouts(); tc.held == 1 && got != before {
			t.Fatalf("%s: pool workers fanned out %d times; parallelism must live in the pool only", spec, got-before)
		}
		b.Close()
		if got := tensor.MaxThreads(); got != 4 {
			t.Fatalf("%s: MaxThreads after Close = %d, want 4 (reservation not released)", spec, got)
		}
	}

	// Sanity: the same kernel shape does fan out once no pool holds the
	// reservation.
	before := tensor.KernelFanouts()
	x := tensor.New(64, 256)
	w := tensor.New(256, 256)
	tensor.MatMulInto(tensor.New(64, 256), x, w)
	if tensor.KernelFanouts() == before {
		t.Fatal("expected kernel fan-out after pool closed")
	}
}

// TestParallelPoolDrainsUnawaitedFutures pins Close's work-conserving
// drain: enqueued subtasks nobody awaited still compute.
func TestParallelPoolDrainsUnawaitedFutures(t *testing.T) {
	cfg, shard, params := backendFixture(t)
	b := newParallelBackend(cfg, 2)
	for i := 0; i < 3; i++ {
		b.Launch(Subtask{Epoch: 0, Shard: i, Seed: int64(i), Params: params, Data: shard})
	}
	b.Close()
	if got := b.Stats().Computed; got != 3 {
		t.Fatalf("Computed after Close = %d, want 3", got)
	}
	b.Close() // idempotent
}
