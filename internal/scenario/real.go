package scenario

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/live"
	"vcdl/internal/store"
)

// DefaultWallLimit caps a real-mode run's wall clock when Options does
// not: a live fleet that wedges (every workunit burned through its
// error budget, a client deadlock) must fail the scenario, not hang CI.
const DefaultWallLimit = 120 * time.Second

// runReal compiles the scenario onto a live fleet: an in-process BOINC
// server plus real client daemons, with every `at <t>` event fired on
// the wall clock at t × TimeScale and applied through the fleet's
// ops.Core, the same control plane sim events go through. All reported
// times are mapped back into virtual hours so the scenario's assertions
// (and the fidelity CSV) compare like with like (DESIGN.md §9).
func runReal(sc *Scenario, opts Options) (*Report, error) {
	if sc.Fleet.Procs && opts.Spawn == nil {
		// The harness cannot invent a client binary; only a caller that
		// owns one (the vcdl-scenario CLI and its hidden _client mode)
		// can honour process isolation.
		return nil, fmt.Errorf("scenario %s: 'procs on' requires a process spawner (vcdl-scenario provides one automatically; library callers must set Options.Spawn)", sc.Name)
	}
	cfg, spec, err := sc.BuildReal()
	if err != nil {
		return nil, err
	}
	scale := opts.TimeScale
	if scale <= 0 {
		scale = live.DefaultTimeScale
	}
	// The CLI's -store flag wins over the scenario's `store` key; both
	// default to the eventual store (the paper's Redis-style backend).
	storeKind := opts.Store
	if storeKind == "" {
		storeKind = sc.Fleet.StoreKind
	}
	st, err := store.ByName(storeKind, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	reg := runRegistry(opts)
	// Heavy-traffic knobs (DESIGN.md §14): stripe the scheduler state
	// and/or bound concurrent request handling when the scenario asks.
	var schedCfg *boinc.SchedulerConfig
	if sc.Fleet.Shards > 1 {
		c := boinc.DefaultSchedulerConfig()
		c.Shards = sc.Fleet.Shards
		schedCfg = &c
	}
	var admit *boinc.AdmissionConfig
	if sc.Fleet.AdmitMax > 0 {
		admit = &boinc.AdmissionConfig{MaxConcurrent: sc.Fleet.AdmitMax, MaxQueue: sc.Fleet.AdmitQueue}
	}
	fleet, err := live.StartFleet(live.FleetConfig{
		Server: live.ServerConfig{
			Job:         cfg.Job,
			Spec:        spec,
			Corpus:      cfg.Corpus,
			PServers:    cfg.PServers,
			Store:       st,
			Scheduler:   schedCfg,
			Policy:      cfg.Policy,
			Replication: cfg.Replication,
			Admission:   admit,
		},
		Blobs:              sc.Fleet.Blobs,
		Checkpoint:         sc.Fleet.Checkpoint,
		Byzantine:          cfg.Byzantine,
		ByzantineClients:   cfg.ByzantineClients,
		Name:               sc.Name,
		Fleet:              cloud.Place(cfg.ClientInstances, cfg.Regions),
		TasksPerClient:     cfg.TasksPerClient,
		BaseSubtaskSeconds: cfg.BaseSubtaskSeconds,
		ThreadsPerTask:     cfg.ThreadsPerTask,
		ContentionExp:      cfg.ContentionExp,
		TimeoutVirtual:     cfg.TimeoutSeconds,
		TimeScale:          scale,
		Preempt:            cfg.PreemptProb,
		Spawn:              opts.Spawn,
		Metrics:            reg,
		Trace:              opts.Trace,
		Log:                opts.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	defer fleet.Close()
	if opts.ServerURLFile != "" {
		if werr := os.WriteFile(opts.ServerURLFile, []byte(fleet.URL()+"\n"), 0o644); werr != nil {
			return nil, fmt.Errorf("scenario %s: write server URL file: %w", sc.Name, werr)
		}
	}

	rep := &Report{Scenario: sc, Mode: ModeReal, Metrics: reg}
	var traceMu sync.Mutex
	trace := func(line string) {
		traceMu.Lock()
		rep.traceTo(opts.Progress, line)
		traceMu.Unlock()
	}
	workload := sc.Fleet.Workload
	if workload == "" {
		workload = "quick"
	}
	clients := "goroutine clients"
	if opts.Spawn != nil {
		clients = "process clients"
	}
	extras := st.Name() + " store"
	if sc.Fleet.Blobs {
		extras += ", blob data plane"
	}
	if sc.Fleet.Checkpoint {
		extras += ", durable checkpoints"
	}
	trace(fmt.Sprintf("scenario %s: P%dC%dT%d %s workload, seed %d, %d events, %d assertions (real mode, %s, %s, 1 virtual min = %.3gs wall)",
		sc.Name, cfg.PServers, len(cfg.ClientInstances), cfg.TasksPerClient,
		workload, cfg.Seed, len(sc.Events), len(sc.Asserts), clients, extras, scale*60))

	// Fire the events on the wall clock. The goroutine dies with the
	// run context, so events scheduled past training completion simply
	// never fire (exactly like the simulator draining its event queue
	// only while training is live).
	limit := opts.WallLimit
	if limit <= 0 {
		limit = DefaultWallLimit
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	start := time.Now()
	eventsDone := make(chan struct{})
	// Events flow through the fleet's shared ops core — the same object
	// the /ops admin API serves — so scenario actions and curl'd actions
	// land in the same vcdl_ops_actions_total counters. Only the event
	// goroutine writes evErr; it is read after eventsDone closes.
	ctrl := fleet.Ops()
	var evErr error
	go func() {
		defer close(eventsDone)
		for _, ev := range sc.Events {
			wait := time.Duration(ev.At()*scale*float64(time.Second)) - time.Since(start)
			if wait > 0 {
				t := time.NewTimer(wait)
				select {
				case <-ctx.Done():
					t.Stop()
					return
				case <-t.C:
				}
			}
			if ctx.Err() != nil {
				return
			}
			if err := dispatch(sc, ctrl, ev, fleet.VirtualHours(), trace); evErr == nil {
				evErr = err
			}
		}
	}()

	res, err := fleet.Wait(ctx)
	cancel()
	<-eventsDone // join: no trace writes after the report is assembled
	if err != nil {
		return nil, fmt.Errorf("scenario %s (real mode): %w", sc.Name, err)
	}
	if evErr != nil {
		return nil, evErr
	}
	rep.WallclockSeconds = time.Since(start).Seconds()
	rep.finish(sc, opts, res, scale)
	return rep, nil
}
