package boinc

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcdl/internal/blob"
	"vcdl/internal/obs"
)

// Decoded is what a validator made of an upload on the way to its
// verdict — for VCDL the parameter vector it had to decode anyway. The
// server hands it to the assimilator when the result is canonical and
// calls Release exactly once when it is done with it, whether or not the
// assimilator ran.
type Decoded interface {
	Release()
}

// ValidateFunc decides whether an uploaded output is acceptable. It runs
// outside every scheduler lock, possibly concurrently with itself, and
// must depend only on its arguments' immutable fields. A non-nil Decoded
// may accompany either verdict. A nil validator accepts everything.
type ValidateFunc func(wu *Workunit, output []byte) (dec Decoded, valid bool)

// AssimilateFunc processes the canonical output of a completed workunit —
// for VCDL this is the parameter server's VC-ASGD update. It runs after
// validation succeeds, with whatever the validator decoded (nil without
// a validator). output and dec belong to the server again once the hook
// returns: copy what must outlive the call.
type AssimilateFunc func(wu *Workunit, output []byte, dec Decoded)

// DefaultMaxUpload is the largest upload body a server accepts until
// SetMaxUpload says otherwise.
const DefaultMaxUpload = 1 << 20

// Server is the BOINC-style project server: scheduler endpoint, file
// distribution ("web server"), upload handler, validator and assimilator.
// It is safe for concurrent use.
//
// Scheduler state lives in a ShardedScheduler: with SchedulerConfig.Shards
// > 1, work requests and uploads on different shards run concurrently
// under per-shard locks (validation holds none), while the server's own
// lock only guards the file table and client controls — both read-mostly,
// so the request path takes it shared — and the traffic counters are
// atomics: the heavy-traffic layout of DESIGN.md §14. The default single
// shard behaves exactly like the historical single-mutex server.
type Server struct {
	mu    sync.RWMutex
	sched *ShardedScheduler
	files map[string][]byte
	// controls holds per-client shaping delivered on scheduler replies
	// (the real-mode injection surface; see ClientControl).
	controls map[string]ClientControl

	// admit is the optional backpressure gate on /scheduler and /upload
	// (nil = unlimited). Set once by EnableAdmission before traffic.
	admit *admission

	validate   ValidateFunc
	assimilate AssimilateFunc
	// maxUpload caps an upload body (413 beyond it); bodies recycles the
	// buffers validated uploads are read into.
	maxUpload int64
	bodies    sync.Pool // of *[]byte

	// bytesDown/bytesUp count payload traffic served and received, the
	// real-mode counterpart of the simulator's transfer accounting.
	bytesDown, bytesUp atomic.Int64

	start time.Time
	mux   *http.ServeMux

	// blobs is the content-addressed data plane (nil until EnableBlobs).
	blobs *blob.Service

	// obs, when enabled, holds the metrics registry plus the
	// pre-resolved instruments the request path touches.
	obs      *obs.Registry
	rpcLat   *obs.HistogramVec
	rpcCount *obs.CounterVec
	obsDown  *obs.Counter
	obsUp    *obs.Counter
	obsAssim *obs.Counter
}

// NewServer creates a project server with the given scheduling policy and
// hooks.
func NewServer(cfg SchedulerConfig, validate ValidateFunc, assimilate AssimilateFunc) *Server {
	s := &Server{
		sched:      NewShardedScheduler(cfg, cfg.Shards),
		files:      make(map[string][]byte),
		controls:   make(map[string]ClientControl),
		validate:   validate,
		assimilate: assimilate,
		maxUpload:  DefaultMaxUpload,
		start:      time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /scheduler", s.handleScheduler)
	s.mux.HandleFunc("GET /download", s.handleDownload)
	s.mux.HandleFunc("POST /upload", s.handleUpload)
	s.mux.HandleFunc("GET /status", s.handleStatus)
	return s
}

// ServeHTTP implements http.Handler. With metrics enabled every request
// is timed (wall clock) into vcdl_rpc_seconds{handler=...}.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	handler := routeLabel(r.URL.Path)
	t0 := time.Now()
	s.mux.ServeHTTP(w, r)
	s.rpcLat.With(handler).Observe(time.Since(t0).Seconds())
	s.rpcCount.With(handler).Inc()
}

// routeLabel maps a request path to a bounded handler label so hostile
// or mistyped paths cannot grow metric cardinality.
func routeLabel(path string) string {
	p := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		p = p[:i]
	}
	switch p {
	case "scheduler", "download", "upload", "status", "metrics", "debug", "blob", "ops", "healthz":
		return p
	default:
		return "other"
	}
}

// Handle mounts an auxiliary handler on the server mux (the ops admin
// API, the /healthz readiness probe). The pattern uses the mux's
// method/path syntax; with metrics enabled the request is timed under
// its routeLabel like every built-in endpoint. Call before serving
// traffic.
func (s *Server) Handle(pattern string, h http.Handler) {
	s.mux.Handle(pattern, h)
}

// EnableMetrics attaches a registry to the server: every scheduler
// lifecycle event feeds the vcdl_sched_* families (wall-clock time
// base), HTTP handlers are timed into vcdl_rpc_seconds, traffic and
// assimilation counters are kept, and the mux gains GET /metrics
// (Prometheus text), GET /debug/vars (JSON snapshot) and the
// net/http/pprof endpoints under /debug/pprof/. Call before serving
// traffic; it composes with any sink already installed on the
// scheduler.
func (s *Server) EnableMetrics(r *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.obs != nil {
		return
	}
	s.obs = r
	s.rpcLat = r.HistogramVec(MetricRPCSeconds, "server RPC handling latency, wall seconds", nil, "handler")
	s.rpcCount = r.CounterVec("vcdl_http_requests_total", "HTTP requests served", "handler")
	s.obsDown = r.Counter("vcdl_bytes_down_total", "payload bytes served to clients")
	s.obsUp = r.Counter("vcdl_bytes_up_total", "payload bytes uploaded by clients")
	s.obsAssim = r.Counter("vcdl_assimilations_total", "canonical results assimilated")
	if s.admit != nil {
		s.admit.instrument(r)
	}
	s.sched.AddSink(MetricsSink(r))
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
	s.mux.HandleFunc("GET /debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, r.Snapshot())
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// EnableAdmission installs backpressure on the scheduler and upload
// endpoints: at most cfg.MaxConcurrent requests are handled at once,
// at most cfg.MaxQueue more wait for a slot, and anything beyond that is
// shed with 429 and a Retry-After advisory (which boinc.Client honours
// with a jittered backoff). Download, status and ops traffic is not
// gated — shedding must not blind the operator. Call before serving
// traffic; a zero MaxConcurrent or a second call is a no-op.
func (s *Server) EnableAdmission(cfg AdmissionConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.admit != nil {
		return
	}
	a := newAdmission(cfg)
	if a == nil {
		return
	}
	if s.obs != nil {
		a.instrument(s.obs)
	}
	s.admit = a
}

// ShedCount returns how many requests admission control has rejected
// (0 when admission is disabled).
func (s *Server) ShedCount() int64 {
	if s.admit == nil {
		return 0
	}
	return s.admit.Shed()
}

// EnableBlobs mounts the content-addressed data plane at /blob/{digest}
// (DESIGN.md §11): blob-enabled clients fetch assignment inputs by
// digest through svc — resumable, verified, backpressured — while the
// name-keyed /download path keeps serving everyone else. Served payload
// bytes feed the server's traffic accounting. Call before serving
// traffic; a second call is a no-op.
func (s *Server) EnableBlobs(svc *blob.Service) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.blobs != nil || svc == nil {
		return
	}
	s.blobs = svc
	svc.OnBytes(func(n int64) { s.countBytes(&s.bytesDown, s.obsDown, n) })
	s.mux.Handle("GET /blob/{digest}", svc)
}

// Blobs returns the data-plane service, or nil when disabled.
func (s *Server) Blobs() *blob.Service {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blobs
}

// Metrics returns the attached registry, or nil.
func (s *Server) Metrics() *obs.Registry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.obs
}

// now returns seconds since server start — the scheduler clock.
func (s *Server) now() float64 { return time.Since(s.start).Seconds() }

// PutFile stores (or replaces) a downloadable file.
func (s *Server) PutFile(name string, data []byte) {
	s.mu.Lock()
	s.files[name] = append([]byte(nil), data...)
	s.mu.Unlock()
}

// AddWorkunit queues a workunit on its owning shard (the work-generator
// entry point).
func (s *Server) AddWorkunit(wu Workunit) int64 {
	return s.sched.AddWorkunit(wu)
}

// Scheduler runs f on every scheduler shard, each under its own lock —
// the mutation fan-out for reconfiguration (policy swaps, timeouts,
// cordons) and for attaching sinks. With the default single shard this
// is exactly the historical "run f under the scheduler lock". Reading
// state through f sees one shard at a time; aggregate queries
// (SchedStats, ClientSummaries, AssignmentMix, PolicyName) merge across
// shards instead.
func (s *Server) Scheduler(f func(*Scheduler)) {
	s.sched.Each(f)
}

// SchedStats returns the scheduler counters summed across shards.
func (s *Server) SchedStats() SchedStats { return s.sched.Stats() }

// ClientSummaries returns the fleet-wide client listing, merged across
// shards and sorted by ID.
func (s *Server) ClientSummaries() []ClientSummary { return s.sched.ClientSummaries() }

// ClientCount returns the number of distinct clients across shards.
func (s *Server) ClientCount() int { return len(s.sched.ClientSummaries()) }

// AssignmentMix returns the per-policy assignment counts summed across
// shards.
func (s *Server) AssignmentMix() map[string]int { return s.sched.AssignmentMix() }

// PolicyName reports the active assignment policy (shards always agree:
// swaps fan out through Scheduler).
func (s *Server) PolicyName() string {
	var name string
	s.sched.shards[0].mu.Lock()
	name = s.sched.shards[0].s.Policy().Name()
	s.sched.shards[0].mu.Unlock()
	return name
}

// SetClientControl installs (or, for the zero value, clears) the shaping
// a client receives on its next scheduler reply.
func (s *Server) SetClientControl(id string, ctl ClientControl) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ctl == (ClientControl{}) {
		delete(s.controls, id)
		return
	}
	s.controls[id] = ctl
}

// ClientControlFor returns the shaping currently installed for a client.
func (s *Server) ClientControlFor(id string) ClientControl {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.controls[id]
}

// Traffic returns the payload bytes served to and received from clients.
func (s *Server) Traffic() (down, up int64) {
	return s.bytesDown.Load(), s.bytesUp.Load()
}

// countBytes adds payload traffic to one direction's total and, with
// metrics enabled, to its exported counter.
func (s *Server) countBytes(total *atomic.Int64, exported *obs.Counter, n int64) {
	total.Add(n)
	if exported != nil {
		exported.Add(n)
	}
}

// Done reports whether all workunits reached a terminal state.
func (s *Server) Done() bool {
	s.sched.ExpireTimeouts(s.now())
	return s.sched.Done()
}

// WorkRequest is the scheduler RPC request body.
type WorkRequest struct {
	ClientID string `json:"client_id"`
	MaxTasks int    `json:"max_tasks"`
	// CachedFiles lets a reconnecting client re-declare its sticky cache.
	CachedFiles []string `json:"cached_files,omitempty"`
	// Blob cache deltas since the client's previous request, piggybacked
	// so OS-process clients' data-plane locality is observable
	// server-side (vcdl_blob_cache_* families).
	BlobHits     int   `json:"blob_hits,omitempty"`
	BlobMisses   int   `json:"blob_misses,omitempty"`
	BlobHitBytes int64 `json:"blob_hit_bytes,omitempty"`
}

// WorkReply is the scheduler RPC response body.
type WorkReply struct {
	Assignments []Assignment `json:"assignments"`
	// Control carries the client's current shaping, when any is set.
	Control *ClientControl `json:"control,omitempty"`
}

func (s *Server) handleScheduler(w http.ResponseWriter, r *http.Request) {
	if a := s.admit; a != nil {
		if !a.acquire() {
			a.reject(w)
			return
		}
		defer a.release()
	}
	var req WorkRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.ClientID == "" {
		http.Error(w, "missing client_id", http.StatusBadRequest)
		return
	}
	if svc := s.Blobs(); svc != nil && (req.BlobHits != 0 || req.BlobMisses != 0) {
		svc.NoteCacheStats(req.BlobHits, req.BlobMisses, req.BlobHitBytes)
	}
	// The gather walks shards under their own locks — deadline sweep,
	// sticky-cache declaration and assignment all happen per visited
	// shard, and picks coalesce into one batched reply.
	asn := s.sched.RequestWork(req.ClientID, s.now(), req.MaxTasks, req.CachedFiles)
	reply := WorkReply{Assignments: asn}
	s.mu.RLock()
	if ctl, ok := s.controls[req.ClientID]; ok {
		c := ctl
		reply.Control = &c
	}
	s.mu.RUnlock()
	writeJSON(w, reply)
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("f")
	s.mu.RLock()
	data, ok := s.files[name]
	s.mu.RUnlock()
	if !ok {
		http.Error(w, "no such file: "+name, http.StatusNotFound)
		return
	}
	s.countBytes(&s.bytesDown, s.obsDown, int64(len(data)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

// SetMaxUpload sets the largest upload body the server reads; anything
// longer is answered 413 without being buffered. The project that knows
// its output size calls it once, before serving traffic.
func (s *Server) SetMaxUpload(n int64) { s.maxUpload = n }

// readUpload reads the request body, at most maxUpload bytes of it. A
// declared Content-Length is read in one piece into an exactly sized
// buffer — taken from the pool when pooled, and then the caller must
// hand it to releaseBody — instead of regrowing one through io.ReadAll.
func (s *Server) readUpload(w http.ResponseWriter, r *http.Request, pooled bool) (body []byte, buf *[]byte, err error) {
	n := r.ContentLength
	if n > s.maxUpload {
		return nil, nil, &http.MaxBytesError{Limit: s.maxUpload}
	}
	if n < 0 {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxUpload))
		return body, nil, err
	}
	if pooled {
		buf, _ = s.bodies.Get().(*[]byte)
		if buf == nil || int64(cap(*buf)) < n {
			b := make([]byte, n)
			buf = &b
		}
		body = (*buf)[:n]
	} else {
		body = make([]byte, n)
	}
	_, err = io.ReadFull(r.Body, body)
	return body, buf, err
}

func (s *Server) releaseBody(buf *[]byte) {
	if buf != nil {
		s.bodies.Put(buf)
	}
}

// handleUpload takes one result. With nothing to validate (no validator,
// or the client reported failure) lookup and completion share a single
// acquisition of the owning shard's lock. Otherwise the handler runs in
// three phases — look the result up under the lock, validate with no
// lock held, complete under the lock — so a megabyte decode never stalls
// the work requests and uploads queued on the same shard. CompleteResult
// re-checks the result's state, so one that expired or was completed by
// a duplicate upload while its bytes were being validated is answered
// 410, as it was when validation ran under the lock.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if a := s.admit; a != nil {
		if !a.acquire() {
			a.reject(w)
			return
		}
		defer a.release()
	}
	var resultID int64
	if _, err := fmt.Sscan(r.URL.Query().Get("result"), &resultID); err != nil {
		http.Error(w, "bad result id", http.StatusBadRequest)
		return
	}
	failed := r.URL.Query().Get("failed") == "1"
	validating := s.validate != nil && !failed
	output, buf, err := s.readUpload(w, r, validating)
	defer s.releaseBody(buf)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("upload exceeds %d bytes", s.maxUpload), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.countBytes(&s.bytesUp, s.obsUp, int64(len(output)))
	// The result ID names its owning shard (striped residue classes), so
	// uploads for other shards proceed in parallel.
	var (
		wu        *Workunit
		canonical bool
		cerr      error
	)
	lookup := func(sc *Scheduler) {
		if res := sc.Result(resultID); res != nil {
			wu = sc.Workunit(res.WUID)
		}
	}
	var dec Decoded
	if !validating {
		s.sched.ForResult(resultID, func(sc *Scheduler) {
			if lookup(sc); wu != nil {
				_, canonical, cerr = sc.CompleteResult(resultID, !failed, s.now())
			}
		})
	} else {
		s.sched.ForResult(resultID, lookup)
		if wu != nil {
			var valid bool
			dec, valid = s.validate(wu, output)
			if dec != nil {
				defer dec.Release()
			}
			s.sched.ForResult(resultID, func(sc *Scheduler) {
				_, canonical, cerr = sc.CompleteResult(resultID, valid, s.now())
			})
		}
	}
	if wu == nil {
		http.Error(w, "unknown result", http.StatusNotFound)
		return
	}
	if cerr != nil {
		// Late upload for an already-expired result: acknowledged but
		// ignored, exactly like BOINC discarding post-deadline results.
		w.WriteHeader(http.StatusGone)
		return
	}
	if canonical {
		if s.obsAssim != nil {
			s.obsAssim.Inc()
		}
		if s.assimilate != nil {
			s.assimilate(wu, output, dec)
		}
	}
	w.WriteHeader(http.StatusOK)
}

// StatusReply summarizes server progress for monitoring.
type StatusReply struct {
	Issued        int  `json:"issued"`
	Reissued      int  `json:"reissued"`
	Timeouts      int  `json:"timeouts"`
	Failures      int  `json:"failures"`
	Completions   int  `json:"completions"`
	Invalid       int  `json:"invalid"`
	QuorumRetries int  `json:"quorum_retries"`
	Pending       int  `json:"pending"`
	InFlight      int  `json:"in_flight"`
	Done          bool `json:"done"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.sched.ExpireTimeouts(s.now())
	st := s.sched.Stats()
	reply := StatusReply{
		Issued:        st.Issued,
		Reissued:      st.Reissued,
		Timeouts:      st.Timeouts,
		Failures:      st.Failures,
		Completions:   st.Completions,
		Invalid:       st.Invalid,
		QuorumRetries: st.QuorumRetries,
		Pending:       st.Pending,
		InFlight:      st.InFlight,
		Done:          st.Done,
	}
	writeJSON(w, reply)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
