package blob

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vcdl/internal/obs"
)

// Metric family names the service registers (DESIGN.md §11). They are
// exported so CI assertions and the scenario result extraction can
// reference them without typo drift.
const (
	// MetricBlobBytes counts payload bytes served by the data plane.
	MetricBlobBytes = "vcdl_blob_bytes_total"
	// MetricBlobSeconds is the per-request transfer latency histogram.
	MetricBlobSeconds = "vcdl_blob_transfer_seconds"
	// MetricBlobResumes counts Range requests with a non-zero offset —
	// each one is a client resuming an interrupted transfer.
	MetricBlobResumes = "vcdl_blob_resume_total"
	// MetricBlobRequests counts requests by outcome label
	// (ok, killed, throttled, notfound, bad).
	MetricBlobRequests = "vcdl_blob_requests_total"
	// MetricBlobCacheHits / MetricBlobCacheMisses count client-side
	// digest-cache outcomes, reported back on scheduler requests so
	// process-isolated clients are observable too.
	MetricBlobCacheHits   = "vcdl_blob_cache_hits_total"
	MetricBlobCacheMisses = "vcdl_blob_cache_misses_total"
)

// DefaultMaxConcurrent bounds simultaneous blob transfers when the
// Service is created with no explicit limit: enough for a busy fleet,
// small enough that a flash crowd queues instead of exhausting file
// descriptors and memory bandwidth.
const DefaultMaxConcurrent = 32

// DefaultAcquireWait is how long a transfer waits for a free slot
// before the service sheds it with 503 + Retry-After (backpressure
// rather than unbounded queueing).
const DefaultAcquireWait = 5 * time.Second

// Service is the server half of the data plane: an HTTP handler for
// GET /blob/{digest} over a Store. It supports open-ended and bounded
// Range requests (the resume protocol), bounds concurrent transfers
// with a semaphore (waiters past AcquireWait are shed with 503), and
// can sever transfers mid-stream after a configured byte count — the
// fault-injection hook the kill/resume tests and the scenario engine's
// `blob-kill` event use.
type Service struct {
	store Store
	// sem bounds concurrent transfers; nil = unbounded.
	sem chan struct{}
	// acquireWait is the backpressure budget before a 503.
	acquireWait time.Duration
	// killAfter, when > 0, aborts every transfer after that many
	// payload bytes (fault injection; resumed transfers make progress
	// because each attempt moves killAfter bytes forward).
	killAfter atomic.Int64

	// served counts payload bytes and resumes even without a registry,
	// so the fleet result can always report data-plane traffic.
	servedBytes atomic.Int64
	resumes     atomic.Int64
	cacheHits   atomic.Int64
	cacheBytes  atomic.Int64

	// onBytes, when set, feeds served payload bytes into the project
	// server's traffic accounting.
	onBytes func(n int64)

	// metrics instruments (nil until EnableMetrics).
	obsBytes   *obs.Counter
	obsSeconds *obs.Histogram
	obsResumes *obs.Counter
	obsReqs    *obs.CounterVec
	obsHits    *obs.Counter
	obsMisses  *obs.Counter
}

// NewService creates a data-plane service over st. maxConcurrent <= 0
// takes DefaultMaxConcurrent.
func NewService(st Store, maxConcurrent int) *Service {
	if maxConcurrent <= 0 {
		maxConcurrent = DefaultMaxConcurrent
	}
	return &Service{
		store:       st,
		sem:         make(chan struct{}, maxConcurrent),
		acquireWait: DefaultAcquireWait,
	}
}

// Store returns the backing content-addressed store.
func (s *Service) Store() Store { return s.store }

// OnBytes installs a callback receiving every served payload byte
// count (the project server's traffic accounting).
func (s *Service) OnBytes(f func(n int64)) { s.onBytes = f }

// SetKillAfter arms (n > 0) or disarms (n <= 0) transfer kills: every
// subsequent transfer is severed after n payload bytes.
func (s *Service) SetKillAfter(n int64) {
	if n < 0 {
		n = 0
	}
	s.killAfter.Store(n)
}

// ServedBytes returns total payload bytes served.
func (s *Service) ServedBytes() int64 { return s.servedBytes.Load() }

// Resumes returns how many Range-resume requests were served.
func (s *Service) Resumes() int64 { return s.resumes.Load() }

// CacheHits returns client-reported digest-cache hits accumulated via
// NoteCacheStats.
func (s *Service) CacheHits() int64 { return s.cacheHits.Load() }

// NoteCacheStats folds one client's reported cache-hit/miss deltas
// into the service's aggregate view (clients piggyback these on
// scheduler requests, so OS-process clients are counted too).
func (s *Service) NoteCacheStats(hits, misses int, hitBytes int64) {
	if hits < 0 || misses < 0 || hitBytes < 0 {
		return // hostile or buggy client; never let counters regress
	}
	s.cacheHits.Add(int64(hits))
	s.cacheBytes.Add(hitBytes)
	if s.obsHits != nil && hits > 0 {
		s.obsHits.Add(int64(hits))
	}
	if s.obsMisses != nil && misses > 0 {
		s.obsMisses.Add(int64(misses))
	}
}

// EnableMetrics registers the vcdl_blob_* families on r and starts
// recording into them. Call before serving traffic.
func (s *Service) EnableMetrics(r *obs.Registry) {
	s.obsBytes = r.Counter(MetricBlobBytes, "payload bytes served by the blob data plane")
	s.obsSeconds = r.Histogram(MetricBlobSeconds, "blob transfer latency, wall seconds", nil)
	s.obsResumes = r.Counter(MetricBlobResumes, "blob transfers resumed via Range offset")
	s.obsReqs = r.CounterVec(MetricBlobRequests, "blob requests by outcome", "outcome")
	s.obsHits = r.Counter(MetricBlobCacheHits, "client digest-cache hits (reported on scheduler requests)")
	s.obsMisses = r.Counter(MetricBlobCacheMisses, "client digest-cache misses (reported on scheduler requests)")
}

func (s *Service) outcome(label string) {
	if s.obsReqs != nil {
		s.obsReqs.With(label).Inc()
	}
}

// parseRange parses a "bytes=N-" or "bytes=N-M" header against size.
// An empty header means the whole blob. Unsatisfiable or malformed
// ranges return ok=false.
func parseRange(h string, size int64) (start, end int64, ok bool) {
	if h == "" {
		return 0, size - 1, true
	}
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	lo, hi, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	start, err := strconv.ParseInt(lo, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, false
	}
	end = size - 1
	if hi != "" {
		end, err = strconv.ParseInt(hi, 10, 64)
		if err != nil || end < start {
			return 0, 0, false
		}
		if end >= size {
			end = size - 1
		}
	}
	return start, end, true
}

// ServeHTTP handles GET /blob/{digest}: the full blob, or the
// requested byte range with 206 + Content-Range. Every response
// carries X-Blob-Digest so the client can sanity-check it is
// reassembling the right content before paying for the hash.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	digest := r.PathValue("digest")
	if !ValidDigest(digest) {
		s.outcome("bad")
		http.Error(w, "malformed digest", http.StatusBadRequest)
		return
	}

	// Backpressure: a transfer slot or a timed shed.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-time.After(s.acquireWait):
		s.outcome("throttled")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "transfer slots exhausted", http.StatusServiceUnavailable)
		return
	case <-r.Context().Done():
		s.outcome("bad")
		return
	}

	data, err := s.store.Get(digest)
	if err != nil {
		s.outcome("notfound")
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	size := int64(len(data))
	start, end, ok := parseRange(r.Header.Get("Range"), size)
	if !ok {
		s.outcome("bad")
		w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", size))
		http.Error(w, "unsatisfiable range", http.StatusRequestedRangeNotSatisfiable)
		return
	}

	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Accept-Ranges", "bytes")
	h.Set("X-Blob-Digest", digest)
	h.Set("Content-Length", strconv.FormatInt(end-start+1, 10))
	if start > 0 || end < size-1 {
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, end, size))
		w.WriteHeader(http.StatusPartialContent)
	}
	if start > 0 {
		s.resumes.Add(1)
		if s.obsResumes != nil {
			s.obsResumes.Inc()
		}
	}

	payload := data[start : end+1]
	kill := s.killAfter.Load()
	killed := kill > 0 && int64(len(payload)) > kill
	if killed {
		payload = payload[:kill]
	}
	n, _ := w.Write(payload)
	s.servedBytes.Add(int64(n))
	if s.onBytes != nil && n > 0 {
		s.onBytes(int64(n))
	}
	if s.obsBytes != nil {
		s.obsBytes.Add(int64(n))
	}
	if s.obsSeconds != nil {
		s.obsSeconds.Observe(time.Since(t0).Seconds())
	}
	if killed {
		// Sever the connection mid-stream: the client has fewer bytes
		// than Content-Length promised and must resume with a Range
		// request. http.ErrAbortHandler aborts without a graceful close.
		s.outcome("killed")
		if f, okf := w.(http.Flusher); okf {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	s.outcome("ok")
}
