// Package live runs the real distributed VCDL stack — an in-process
// BOINC-style project server (core.Distributed) plus volunteer client
// daemons speaking the HTTP protocol — as one orchestrated harness. It
// is the code path the vcdl-server and vcdl-client binaries, the
// scenario engine's real-mode driver (internal/scenario) and the
// experiment API's real-mode lowering (internal/exp) all share: the
// binaries wrap StartServer/RunClient around flags, the harnesses wrap
// a whole Fleet and inject faults through the server's ClientControl
// channel (DESIGN.md §9). Clients may run as goroutines (the default)
// or as separate OS processes via a SpawnFunc.
package live

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"slices"
	"time"

	"vcdl/internal/blob"
	"vcdl/internal/boinc"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/obs"
	"vcdl/internal/ops"
	"vcdl/internal/store"
)

// ServerConfig describes the server half of a real distributed job.
type ServerConfig struct {
	Job    core.JobConfig
	Spec   core.ModelSpec
	Corpus *data.Corpus
	// PServers is the initial parameter-server pool size.
	PServers int
	// Store backs the shared parameter copy (nil = strong store).
	Store store.Store
	// Scheduler overrides the BOINC scheduler mechanics (nil = default).
	Scheduler *boinc.SchedulerConfig
	// Policy selects the assignment policy (nil = paper policy).
	Policy boinc.Policy
	// Replication issues n concurrent copies of every workunit (0/1 = one).
	Replication int
	// Blobs enables the content-addressed data plane: every published
	// input file is also stored under its SHA-256 digest and served at
	// /blob/{digest} with resumable Range transfers (DESIGN.md §11).
	Blobs bool
	// Admission bounds concurrent scheduler/upload handling: beyond
	// MaxConcurrent running plus MaxQueue waiting, requests are shed
	// with 429 + Retry-After, which the client daemons honour with a
	// jittered backoff (DESIGN.md §14). Nil means unlimited. Scheduler
	// state striping is configured separately via Scheduler.Shards.
	Admission *boinc.AdmissionConfig
	// Checkpoint persists the model through the PS group's store after
	// every closed epoch, so Resize/failover restores parameters instead
	// of restarting the epoch.
	Checkpoint bool
	// ResumeEpoch/ResumeParams seed the job from an externally loaded
	// checkpoint (vcdl-server's SIGTERM save file): training resumes at
	// ResumeEpoch+1. ResumeParams nil means no external resume.
	ResumeEpoch  int
	ResumeParams []float64
	// Metrics, when set, instruments the server before it accepts traffic:
	// scheduler lifecycle metrics plus GET /metrics, GET /debug/vars and
	// /debug/pprof on the project mux (DESIGN.md §10). Histograms record
	// wall seconds — the live stack has no virtual clock.
	Metrics *obs.Registry
	// Trace, when set, records workunit lifecycle spans from the
	// scheduler's vantage point (created/assigned/validated/... in wall
	// seconds since the scheduler's epoch).
	Trace *obs.Tracer
}

// Server is a running project server listening on a TCP port.
type Server struct {
	D   *core.Distributed
	ln  net.Listener
	hs  *http.Server
	url string
}

// StartServer builds the distributed job and serves it on addr
// (":0" picks a free port). The returned server is already accepting
// scheduler requests.
func StartServer(addr string, cfg ServerConfig) (*Server, error) {
	var svc *blob.Service
	if cfg.Blobs {
		svc = blob.NewService(blob.NewMemStore(), 0)
	}
	d, err := core.NewDistributedJob(cfg.Job, cfg.Spec, cfg.Corpus, cfg.PServers, cfg.Store, core.DistOptions{
		Scheduler:    cfg.Scheduler,
		Policy:       cfg.Policy,
		Replication:  cfg.Replication,
		Blobs:        svc,
		Checkpoint:   cfg.Checkpoint,
		ResumeEpoch:  cfg.ResumeEpoch,
		ResumeParams: cfg.ResumeParams,
		Metrics:      cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	// Instrument before Serve: EnableMetrics must run before the mux
	// takes traffic, and the trace sink must be attached before the first
	// workunit event.
	if cfg.Metrics != nil {
		d.Server().EnableMetrics(cfg.Metrics)
		if svc != nil {
			svc.EnableMetrics(cfg.Metrics)
		}
	}
	if svc != nil {
		d.Server().EnableBlobs(svc)
	}
	if cfg.Admission != nil {
		d.Server().EnableAdmission(*cfg.Admission)
	}
	if cfg.Trace != nil {
		d.Server().Scheduler(func(s *boinc.Scheduler) { s.AddSink(boinc.TraceSink(cfg.Trace)) })
	}
	// Liveness first, diagnosis second: /healthz answers as soon as the
	// listener is up, so CI and orchestrators poll it instead of sleeping.
	d.Server().Handle("GET /healthz", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		clients := d.Server().ClientCount()
		done := false
		select {
		case <-d.Done():
			done = true
		default:
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"ok\":true,\"pservers\":%d,\"clients\":%d,\"done\":%v}\n",
			d.PServers(), clients, done)
	}))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	// Header and idle timeouts shed connections that never send a request;
	// there is deliberately no ReadTimeout, because a megabyte upload over
	// a volunteer's slow link is legitimate however long it takes.
	s := &Server{D: d, ln: ln, hs: &http.Server{
		Handler:           d.Server(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}}
	host, port, _ := net.SplitHostPort(ln.Addr().String())
	if ip := net.ParseIP(host); ip == nil || ip.IsUnspecified() {
		host = "127.0.0.1"
	}
	s.url = "http://" + net.JoinHostPort(host, port)
	go s.hs.Serve(ln)
	return s, nil
}

// URL returns the server's base URL for clients.
func (s *Server) URL() string { return s.url }

// Metrics returns the registry attached via ServerConfig.Metrics (nil
// when the server is uninstrumented).
func (s *Server) Metrics() *obs.Registry { return s.D.Server().Metrics() }

// Blobs returns the blob data-plane service (nil when ServerConfig.Blobs
// was off).
func (s *Server) Blobs() *blob.Service { return s.D.Server().Blobs() }

// Close stops accepting connections.
func (s *Server) Close() error { return s.hs.Close() }

// EnableOps mounts the /ops admin API over this server and returns its
// core. vcdl-server calls it for its standalone deployment; a Fleet
// mounts its own core on the same path instead, so the two must not
// both register.
func (s *Server) EnableOps() *ops.Core {
	c := ops.NewCore(serverTarget{s.D.Server(), s.D}, s.Metrics())
	s.D.Server().Handle("/ops/", c.Handler())
	return c
}

// serverTarget is the ops target of a standalone project server. Its
// volunteers are other people's processes, which it can neither spawn
// nor revive, so it has no Churner or Rejoiner and the core counts
// those verbs as failures. The embedded *boinc.Server supplies the
// ops.Scheduled seam; what is left is shaping and drain through the
// ClientControl channel, and PS resizing.
type serverTarget struct {
	*boinc.Server
	d *core.Distributed
}

// TimeScale is 1: a standalone server has no virtual clock.
func (serverTarget) TimeScale() float64 { return 1 }

// ActiveClients lists, by ID, the clients the scheduler has heard from
// and not written off.
func (t serverTarget) ActiveClients() []string {
	var ids []string
	for _, s := range t.ClientSummaries() {
		if !s.Gone {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// control changes an active client's shaping; the daemon picks it up
// with its next scheduler reply.
func (t serverTarget) control(id string, mutate func(*boinc.ClientControl)) bool {
	if !slices.Contains(t.ActiveClients(), id) {
		return false
	}
	ctl := t.ClientControlFor(id)
	mutate(&ctl)
	t.SetClientControl(id, ctl)
	return true
}

func (t serverTarget) SlowClient(id string, factor float64) bool {
	return t.control(id, func(ctl *boinc.ClientControl) { ctl.SlowFactor = factor })
}

func (t serverTarget) SetByzantine(id, behavior string) bool {
	return t.control(id, func(ctl *boinc.ClientControl) { ctl.Byzantine = behavior })
}

func (t serverTarget) DetachClient(id string) bool {
	return t.control(id, func(ctl *boinc.ClientControl) { ctl.Detach = true })
}

// DetachClients drains the last n active clients in ID order (a
// standalone server has no join order to prefer).
func (t serverTarget) DetachClients(n int) []string {
	ids := t.ActiveClients()
	var gone []string
	for _, id := range ids[len(ids)-min(n, len(ids)):] {
		if t.DetachClient(id) {
			gone = append(gone, id)
		}
	}
	return gone
}

func (t serverTarget) PServers() int     { return t.d.PServers() }
func (t serverTarget) SetPServers(n int) { t.d.SetPServers(n) }

// ClientStatus lists every client the scheduler knows with the shaping
// installed for it. Instance and region stay empty: volunteers are
// remote processes whose hardware the server never learns.
func (t serverTarget) ClientStatus() []ops.ClientStatus {
	sums := t.ClientSummaries()
	out := make([]ops.ClientStatus, 0, len(sums))
	for _, s := range sums {
		ctl := t.ClientControlFor(s.ID)
		out = append(out, ops.ClientStatus{
			ID:          s.ID,
			Active:      !s.Gone,
			Detached:    ctl.Detach,
			Byzantine:   ctl.Byzantine,
			SlowFactor:  cmp.Or(ctl.SlowFactor, 1),
			PaceSeconds: ctl.MinTaskSeconds,
		})
	}
	return out
}

// ClientConfig describes one volunteer client daemon.
type ClientConfig struct {
	ID        string
	ServerURL string
	// Slots is the paper's Tn — simultaneous subtasks on this client.
	Slots int
	// Poll is the idle wait between work requests (0 = client default).
	Poll time.Duration
	// Blobs enables digest-keyed input fetching: assignments that carry
	// blob digests are fetched from /blob/{digest} — resumable, verified,
	// and cached locally — instead of by name from /download.
	Blobs bool
	// BlobCacheDir backs the blob cache with a directory that survives
	// daemon restarts (warm cache on rejoin skips the transfer). Empty
	// means an in-memory cache. Implies Blobs.
	BlobCacheDir string
	// Log receives the daemon's structured events (nil = silent).
	Log *obs.Logger
}

// RunClient runs one volunteer client daemon to completion: it fetches
// the project's published training hyperparameters (job.json) so client
// and server can never disagree on them, then polls for work until ctx
// is cancelled (abrupt death — in-flight results are abandoned) or the
// server detaches it (boinc.ErrDetached; graceful — in-flight work
// finishes first). The returned client carries the session counters
// even when the loop ends in an error.
func RunClient(ctx context.Context, cfg ClientConfig) (*boinc.Client, error) {
	cl := boinc.NewClient(cfg.ID, cfg.ServerURL, cfg.Slots, nil)
	cl.Log = cfg.Log
	if cfg.Poll > 0 {
		cl.Poll = cfg.Poll
	}
	if cfg.Blobs || cfg.BlobCacheDir != "" {
		var cache *blob.Cache
		if cfg.BlobCacheDir != "" {
			c, err := blob.NewDiskCache(cfg.BlobCacheDir)
			if err != nil {
				return cl, fmt.Errorf("live: blob cache %s: %w", cfg.BlobCacheDir, err)
			}
			cache = c
		} else {
			cache = blob.NewMemCache()
		}
		cl.EnableBlobs(cache)
	}
	// Handshake: fetch job.json, waiting out a server that is still
	// coming up (volunteer clients outlive server restarts). The first
	// failure warns; the steady retry stream stays at debug so a slow
	// server boot doesn't flood the log.
	var params core.TrainParams
	for attempt := 0; ; attempt++ {
		raw, err := cl.Download(core.TrainParamsFile)
		if err == nil {
			if params, err = core.DecodeTrainParams(raw); err != nil {
				cfg.Log.Warn("job.json undecodable, giving up", "client", cfg.ID, "err", err)
				return cl, err
			}
			if attempt > 0 {
				cfg.Log.Info("handshake succeeded after retries", "client", cfg.ID, "attempts", attempt+1)
			}
			break
		}
		if attempt == 0 {
			cfg.Log.Warn("job.json not yet available, retrying", "client", cfg.ID, "err", err)
		} else {
			cfg.Log.Debug("job.json still unavailable", "client", cfg.ID, "attempt", attempt+1, "err", err)
		}
		select {
		case <-ctx.Done():
			return cl, ctx.Err()
		case <-time.After(cl.Poll):
		}
	}
	cl.App = core.NewTrainingApp(params.JobConfig())
	err := cl.Loop(ctx)
	if errors.Is(err, boinc.ErrDetached) {
		return cl, err
	}
	if ctx.Err() != nil {
		return cl, ctx.Err()
	}
	return cl, err
}
