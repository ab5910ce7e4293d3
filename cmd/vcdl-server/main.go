// Command vcdl-server runs the server half of a real distributed VCDL
// training job: the BOINC-style project server (scheduler, file
// distribution, upload handler), the VC-ASGD parameter servers and the
// work generator — the same internal/live stack the scenario engine's
// real mode drives. Point one or more vcdl-client processes at it:
//
//	vcdl-server -addr :8080 -subtasks 20 -epochs 5 -pservers 2
//	vcdl-client -server http://localhost:8080 -id c1 -slots 2
//
// The server prints the per-epoch validation accuracy as results arrive
// and exits when the stopping criterion fires.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/live"
	"vcdl/internal/obs"
	"vcdl/internal/store"
)

// serveOptions collects the flags so tests can drive serve directly.
type serveOptions struct {
	addr     string
	subtasks int
	epochs   int
	pservers int
	target   float64
	// storeKind selects the parameter store backend ("eventual" or
	// "strong"); strong is the deprecated -strong-store alias.
	storeKind string
	strong    bool
	seed      int64
	// checkpoint is an epoch-stamped checkpoint file: written on SIGTERM
	// and on completion, loaded (if present) on startup so a restarted
	// server resumes training instead of starting over.
	checkpoint string
	// blobs serves every published input at /blob/{digest} (resumable,
	// digest-verified transfers) alongside the classic /download path.
	blobs bool
	// ckptStore persists epoch checkpoints through the parameter store
	// so PS failover restores instead of restarting the epoch.
	ckptStore bool
	// stop, when non-nil, triggers the graceful-shutdown path (main
	// wires SIGINT/SIGTERM to it; tests send on it directly).
	stop <-chan os.Signal
	// timeout is the BOINC result deadline (0 = scheduler default,
	// 300s); work stranded on a vanished client is reissued after it.
	timeout time.Duration
	// train/val shrink the synthetic corpus (0 = full default sizes);
	// tests use them to finish in milliseconds.
	train, val int
	// metrics instruments the server: GET /metrics (Prometheus text),
	// GET /debug/vars (JSON snapshot) and /debug/pprof on the same port.
	metrics bool
	// ready, when non-nil, receives the server's base URL once it is
	// accepting requests.
	ready chan<- string
	// epochClosed, when non-nil, is called with each epoch that closes,
	// before the next epoch's work exists. It runs under the scheduler's
	// lock, so it must neither block nor call into the server. Tests stop
	// their clients in it, so no further epoch can close.
	epochClosed func(epoch int)
}

func main() {
	var opts serveOptions
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.IntVar(&opts.subtasks, "subtasks", 20, "training subtasks per epoch")
	flag.IntVar(&opts.epochs, "epochs", 5, "maximum training epochs")
	flag.IntVar(&opts.pservers, "pservers", 2, "parameter servers sharing the store")
	flag.Float64Var(&opts.target, "target", 0, "stop when epoch validation accuracy reaches this (0 = run all epochs)")
	flag.StringVar(&opts.storeKind, "store", "eventual", "parameter store backend: eventual or strong")
	flag.BoolVar(&opts.strong, "strong-store", false, "deprecated alias for -store strong")
	flag.Int64Var(&opts.seed, "seed", 1, "seed for data generation and initialization")
	flag.StringVar(&opts.checkpoint, "checkpoint", "", "epoch-stamped checkpoint file: saved on SIGTERM and completion, resumed from on restart")
	flag.BoolVar(&opts.blobs, "blobs", false, "serve inputs at /blob/{digest} (content-addressed, resumable transfers)")
	flag.BoolVar(&opts.ckptStore, "checkpoints", false, "persist epoch checkpoints through the parameter store (PS failover restores instead of restarting)")
	flag.DurationVar(&opts.timeout, "timeout", 0, "BOINC result deadline (0 = default 5m)")
	flag.IntVar(&opts.train, "train", 0, "training-set size override (0 = default corpus)")
	flag.IntVar(&opts.val, "val", 0, "validation-set size override (0 = default corpus)")
	flag.BoolVar(&opts.metrics, "metrics", false, "expose /metrics, /debug/vars and /debug/pprof on the listen address")
	flag.Parse()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	opts.stop = sig
	if _, err := serve(opts, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// serve builds the training job, runs the live server until training
// completes and reports per-epoch progress to out. It returns the final
// run result — the extracted run loop the binary and its tests share.
func serve(opts serveOptions, out io.Writer) (core.RunResult, error) {
	dc := data.DefaultSynthConfig()
	dc.Seed = opts.seed
	if opts.train > 0 {
		dc.NTrain = opts.train
	}
	if opts.val > 0 {
		dc.NVal, dc.NTest = opts.val, opts.val
	}
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		return core.RunResult{}, fmt.Errorf("generate corpus: %w", err)
	}

	spec := core.SmallCNNSpec(dc.C, dc.H, dc.W, dc.Classes)
	builder, err := spec.Builder()
	if err != nil {
		return core.RunResult{}, fmt.Errorf("model spec: %w", err)
	}
	cfg := core.DefaultJobConfig(builder)
	cfg.Subtasks = opts.subtasks
	cfg.MaxEpochs = opts.epochs
	cfg.TargetAccuracy = opts.target
	cfg.LocalPasses = 3
	cfg.LearningRate = 0.01
	cfg.ValSubset = 200
	cfg.Seed = opts.seed

	kind := opts.storeKind
	if opts.strong {
		kind = "strong"
	}
	var st store.Store
	switch kind {
	case "", "eventual":
		st = store.NewEventual(3, 4, opts.seed)
	case "strong":
		st = store.NewStrong()
	default:
		return core.RunResult{}, fmt.Errorf("unknown -store %q (want eventual or strong)", kind)
	}
	scfg := live.ServerConfig{
		Job:        cfg,
		Spec:       spec,
		Corpus:     corpus,
		PServers:   opts.pservers,
		Store:      st,
		Blobs:      opts.blobs,
		Checkpoint: opts.ckptStore,
	}
	// A checkpoint file from a previous (interrupted or finished) run
	// resumes training at the epoch after the one it captured; the epoch
	// budget is absolute, so a resumed job still stops at -epochs.
	if opts.checkpoint != "" {
		epoch, params, err := core.LoadCheckpoint(opts.checkpoint)
		switch {
		case err == nil && epoch > 0:
			scfg.ResumeEpoch = epoch
			scfg.ResumeParams = params
			fmt.Fprintf(out, "resuming from checkpoint %s (epoch %d)\n", opts.checkpoint, epoch)
		case errors.Is(err, os.ErrNotExist):
			// Fresh start; the file appears on the first save.
		case err != nil:
			fmt.Fprintf(out, "checkpoint %s unreadable (%v), starting fresh\n", opts.checkpoint, err)
		}
	}
	if opts.timeout > 0 {
		sched := boinc.DefaultSchedulerConfig()
		sched.DefaultTimeout = opts.timeout.Seconds()
		sched.Seed = opts.seed
		scfg.Scheduler = &sched
	}
	if opts.metrics {
		scfg.Metrics = obs.NewRegistry()
	}
	srv, err := live.StartServer(opts.addr, scfg)
	if err != nil {
		return core.RunResult{}, fmt.Errorf("create job: %w", err)
	}
	defer srv.Close()
	// The standalone admin plane: /healthz for liveness and /ops for the
	// scheduler-scoped actions (cordon, drain, tune, ps, policy, list).
	srv.EnableOps()
	fmt.Fprintf(out, "vcdl-server listening on %s (%d subtasks/epoch, %d epochs, %d parameter servers, %s store)\n",
		srv.URL(), opts.subtasks, opts.epochs, opts.pservers, st.Name())
	fmt.Fprintf(out, "admin plane: %s/healthz (liveness), %s/ops/clients (docs/ops-api.md; vcdl-scenario ops -server %s)\n",
		srv.URL(), srv.URL(), srv.URL())
	if opts.blobs {
		fmt.Fprintf(out, "data plane: inputs published at %s/blob/{digest} (resumable, digest-verified)\n", srv.URL())
	}
	if opts.metrics {
		fmt.Fprintf(out, "observability: %s/metrics (Prometheus), %s/debug/vars (JSON), %s/debug/pprof\n",
			srv.URL(), srv.URL(), srv.URL())
	}
	if opts.epochClosed != nil {
		srv.D.Server().Scheduler(func(s *boinc.Scheduler) { s.AddSink(epochSink(opts.epochClosed)) })
	}
	if opts.ready != nil {
		opts.ready <- srv.URL()
	}

	// Report progress until training completes.
	job := srv.D
	seen := 0
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-job.Done():
			res, err := job.Result()
			if err != nil {
				return core.RunResult{}, fmt.Errorf("job failed: %w", err)
			}
			reportNew(out, &seen, res)
			fmt.Fprintf(out, "training finished: %d epochs, final accuracy %.3f (stopped early: %v)\n",
				len(res.Curve.Points), res.Curve.FinalValue(), res.Stopped)
			if opts.checkpoint != "" && len(res.FinalParams) > 0 {
				epoch := scfg.ResumeEpoch + len(res.Curve.Points)
				if n := len(res.Curve.Points); n > 0 {
					epoch = res.Curve.Points[n-1].Epoch
				}
				if err := core.SaveCheckpoint(opts.checkpoint, epoch, res.FinalParams); err != nil {
					fmt.Fprintf(out, "checkpoint: %v\n", err)
				} else {
					fmt.Fprintf(out, "checkpoint written to %s (epoch %d)\n", opts.checkpoint, epoch)
				}
			}
			return res, nil
		case <-opts.stop:
			// Graceful shutdown: snapshot the live parameter copy so a
			// restart with the same -checkpoint resumes mid-run instead of
			// retraining the finished epochs.
			res, _ := job.Result()
			reportNew(out, &seen, res)
			if opts.checkpoint != "" {
				epoch, params, err := job.Snapshot()
				if err != nil {
					fmt.Fprintf(out, "shutdown: snapshot failed: %v\n", err)
				} else if err := core.SaveCheckpoint(opts.checkpoint, epoch, params); err != nil {
					fmt.Fprintf(out, "shutdown: %v\n", err)
				} else {
					fmt.Fprintf(out, "interrupted: checkpoint written to %s (epoch %d); restart with the same -checkpoint to resume\n",
						opts.checkpoint, epoch)
				}
			} else {
				fmt.Fprintln(out, "interrupted (no -checkpoint file; progress not saved)")
			}
			return res, nil
		case <-tick.C:
			res, err := job.Result()
			if err == nil {
				reportNew(out, &seen, res)
			}
		}
	}
}

// epochSink calls its function with epoch e when the first workunit of
// epoch e+1 is created, which the job does only once epoch e closed.
type epochSink func(epoch int)

func (f epochSink) OnSchedEvent(e boinc.SchedEvent) {
	if e.Kind != boinc.EvCreated {
		return
	}
	var next int
	if _, err := fmt.Sscanf(e.WUName, "train_e%d_s000", &next); err == nil {
		f(next - 1)
	}
}

func reportNew(out io.Writer, seen *int, res core.RunResult) {
	for _, p := range res.Curve.Points[*seen:] {
		fmt.Fprintf(out, "epoch %2d  validation accuracy %.3f  [%.3f, %.3f]\n", p.Epoch, p.Value, p.Lo, p.Hi)
		*seen++
	}
}
