package boinc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vcdl/internal/blob"
	"vcdl/internal/obs"
)

// App is the application a client runs for each assignment — VCDL's
// TensorFlow stand-in. Inputs are the downloaded file contents keyed by
// file name; the returned output is uploaded as the result.
type App interface {
	Run(asn Assignment, inputs map[string][]byte) (output []byte, err error)
}

// AppFunc adapts a function to the App interface.
type AppFunc func(asn Assignment, inputs map[string][]byte) ([]byte, error)

// Run implements App.
func (f AppFunc) Run(asn Assignment, inputs map[string][]byte) ([]byte, error) {
	return f(asn, inputs)
}

// Client is the BOINC-style client daemon: it polls the scheduler for
// work, downloads input files (with a sticky-file cache), runs the
// application and uploads results. Slots bounds how many assignments run
// concurrently — the paper's Tn, "maximum number of subtasks that can run
// simultaneously on a client".
type Client struct {
	ID        string
	ServerURL string
	Slots     int
	App       App
	// Poll is the idle wait between scheduler requests.
	Poll time.Duration
	// Log receives structured client-daemon events (nil = silent). The
	// daemon deliberately rides out transient failures — a flaky server
	// must not kill a volunteer — so without a logger those retries are
	// invisible; with one they become warnings.
	Log *obs.Logger

	httpc *http.Client

	// fetcher is the data-plane client (nil until EnableBlobs): inputs
	// whose assignment carries a digest are fetched through it —
	// resumable, verified, digest-cached — instead of via /download.
	fetcher *blob.Fetcher

	mu    sync.Mutex
	cache map[string][]byte
	apps  map[string]App
	// ctl is the server-pushed shaping (see ClientControl); rng drives
	// the preemption coin, seeded from the client ID so a fleet of
	// clients doesn't flip identical coins.
	ctl  ClientControl
	rng  *rand.Rand
	busy int

	// Counters for tests and reports.
	Completed, Failed, Downloads, CacheHits, Preempted int
}

// ErrDetached is returned by Loop when the server asked the client to
// detach (ClientControl.Detach): in-flight work finished, loop exited.
var ErrDetached = errors.New("boinc: detached by server")

// RetryAfterError reports a request the server shed under load (HTTP
// 429) together with its Retry-After advisory. Loop honours it by
// backing off for the advised delay (plus jitter) instead of the usual
// poll interval.
type RetryAfterError struct {
	// After is the server's advised backoff.
	After time.Duration
}

// Error implements error.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("boinc: server overloaded, retry after %s", e.After)
}

// parseRetryAfter reads a Retry-After header as seconds (the server
// writes decimals; integers per RFC work too). Zero when absent or
// unparseable, and so when NaN or too long for a Duration: converting
// such a float to an integer gives whatever the hardware makes of it, a
// negative Duration on amd64.
func parseRetryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.ParseFloat(v, 64)
	if err != nil || !(secs >= 0) || secs*float64(time.Second) >= 1<<63 {
		return 0
	}
	return time.Duration(secs * float64(time.Second))
}

// NewClient creates a client daemon.
func NewClient(id, serverURL string, slots int, app App) *Client {
	if slots < 1 {
		slots = 1
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return &Client{
		ID:        id,
		ServerURL: serverURL,
		Slots:     slots,
		App:       app,
		Poll:      50 * time.Millisecond,
		httpc:     &http.Client{Timeout: 60 * time.Second},
		cache:     make(map[string][]byte),
		rng:       rand.New(rand.NewSource(int64(h.Sum64()))),
	}
}

// EnableBlobs switches the client onto the content-addressed data
// plane: assignment inputs published as blobs are fetched by digest
// through cache (nil = a fresh in-memory cache; pass a disk-backed
// cache to stay warm across process restarts). Call before Loop.
func (c *Client) EnableBlobs(cache *blob.Cache) {
	f := blob.NewFetcher(c.ServerURL, cache)
	f.HTTPClient = c.httpc
	c.mu.Lock()
	c.fetcher = f
	c.mu.Unlock()
}

// BlobStats returns the data-plane transfer accounting (zero when
// blobs are disabled).
func (c *Client) BlobStats() blob.FetchStats {
	c.mu.Lock()
	f := c.fetcher
	c.mu.Unlock()
	if f == nil {
		return blob.FetchStats{}
	}
	return f.Stats()
}

// Control returns the shaping most recently pushed by the server.
func (c *Client) Control() ClientControl {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctl
}

// coin flips the preemption coin with probability p.
func (c *Client) coin(p float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < p
}

// sleepCtx pauses for d (no-op for d <= 0), returning early on cancel.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// rttSleep injects the control's round-trip latency before an HTTP call.
func (c *Client) rttSleep(ctx context.Context) {
	if rtt := c.Control().RTTSeconds; rtt > 0 {
		sleepCtx(ctx, time.Duration(rtt*float64(time.Second)))
	}
}

// RegisterApp installs an application under a name so the client can
// execute workunits from multiple server applications (a BOINC server
// hosts many applications per project, §II-C). Assignments whose App
// matches name run on app; unmatched assignments use the default App.
func (c *Client) RegisterApp(name string, app App) {
	c.mu.Lock()
	if c.apps == nil {
		c.apps = make(map[string]App)
	}
	c.apps[name] = app
	c.mu.Unlock()
}

// appFor resolves the application for an assignment.
func (c *Client) appFor(asn Assignment) App {
	c.mu.Lock()
	defer c.mu.Unlock()
	if asn.App != "" && c.apps != nil {
		if app, ok := c.apps[asn.App]; ok {
			return app
		}
	}
	return c.App
}

// cachedNames returns the sticky files held locally.
func (c *Client) cachedNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.cache))
	for n := range c.cache {
		names = append(names, n)
	}
	return names
}

// RequestWork asks the scheduler for up to n assignments and applies
// any shaping control the reply carries.
func (c *Client) RequestWork(n int) ([]Assignment, error) {
	return c.requestWork(context.Background(), n)
}

func (c *Client) requestWork(ctx context.Context, n int) ([]Assignment, error) {
	wreq := WorkRequest{ClientID: c.ID, MaxTasks: n, CachedFiles: c.cachedNames()}
	c.mu.Lock()
	f := c.fetcher
	c.mu.Unlock()
	if f != nil {
		d := f.ReportDelta()
		wreq.BlobHits = int(d.CacheHits)
		wreq.BlobMisses = int(d.CacheMisses)
		wreq.BlobHitBytes = d.CacheHitBytes
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.ServerURL+"/scheduler", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("boinc: scheduler request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		after := parseRetryAfter(resp)
		if after <= 0 {
			after = time.Second
		}
		return nil, &RetryAfterError{After: after}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("boinc: scheduler status %s", resp.Status)
	}
	var reply WorkReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, fmt.Errorf("boinc: decode reply: %w", err)
	}
	if reply.Control != nil {
		c.mu.Lock()
		c.ctl = *reply.Control
		c.mu.Unlock()
	}
	return reply.Assignments, nil
}

// retryAttempts bounds transient-failure retries for downloads and
// uploads. Volunteer clients must ride out brief server overloads; real
// BOINC clients retry transfers persistently.
const retryAttempts = 5

// retryWait is the base pause between transfer retries; retryPause adds
// up to the same again in jitter so a fleet of polling clients can't
// phase-lock its retries against a periodically failing server.
const retryWait = 20 * time.Millisecond

// uploadRounds bounds how many rounds of upload attempts runOne makes
// for a finished result before giving up on it.
const uploadRounds = 4

// retryPause waits between transfer retries (with jitter), returning
// early on cancel.
func (c *Client) retryPause(ctx context.Context) {
	c.mu.Lock()
	jitter := time.Duration(c.rng.Int63n(int64(retryWait)))
	c.mu.Unlock()
	sleepCtx(ctx, retryWait+jitter)
}

// Download fetches a file, consulting the sticky cache first. Transport
// errors and 5xx responses are retried; 4xx responses (missing file) fail
// immediately.
func (c *Client) Download(name string) ([]byte, error) {
	return c.download(context.Background(), name)
}

func (c *Client) download(ctx context.Context, name string) ([]byte, error) {
	c.mu.Lock()
	if data, ok := c.cache[name]; ok {
		c.CacheHits++
		c.mu.Unlock()
		return data, nil
	}
	c.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			c.retryPause(ctx)
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		req, rerr := http.NewRequestWithContext(ctx, http.MethodGet, c.ServerURL+"/download?f="+name, nil)
		if rerr != nil {
			return nil, rerr
		}
		resp, err := c.httpc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("boinc: download %s: %w", name, err)
			continue
		}
		if resp.StatusCode >= 500 {
			resp.Body.Close()
			lastErr = fmt.Errorf("boinc: download %s: %s", name, resp.Status)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("boinc: download %s: %s", name, resp.Status)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("boinc: download %s: %w", name, err)
			continue
		}
		c.mu.Lock()
		c.cache[name] = data
		c.Downloads++
		c.mu.Unlock()
		return data, nil
	}
	return nil, lastErr
}

// fetchInput resolves one assignment input: through the blob data
// plane when the assignment references it by digest and blobs are
// enabled (the Downloads counter still counts network transfers; a
// digest-cache hit counts as a CacheHit like a sticky-file hit),
// otherwise through the name-keyed /download path.
func (c *Client) fetchInput(ctx context.Context, asn Assignment, name string) ([]byte, error) {
	c.mu.Lock()
	f := c.fetcher
	c.mu.Unlock()
	digest, ok := asn.Blobs[name]
	if f == nil || !ok {
		return c.download(ctx, name)
	}
	warm := f.Cache.Has(digest)
	data, err := f.Fetch(ctx, digest)
	if err != nil {
		return nil, fmt.Errorf("boinc: blob input %s: %w", name, err)
	}
	c.mu.Lock()
	if warm {
		c.CacheHits++
	} else {
		c.Downloads++
	}
	c.mu.Unlock()
	return data, nil
}

// Invalidate drops a file from the sticky cache (used when the server
// republishes a file name with new content, e.g. fresh parameters).
func (c *Client) Invalidate(name string) {
	c.mu.Lock()
	delete(c.cache, name)
	c.mu.Unlock()
}

// Upload posts the result output (or a failure notice when err != nil),
// retrying transient transport and 5xx failures so a briefly overloaded
// server does not strand a finished result until its timeout.
func (c *Client) Upload(resultID int64, output []byte, appErr error) error {
	return c.upload(context.Background(), resultID, output, appErr)
}

func (c *Client) upload(ctx context.Context, resultID int64, output []byte, appErr error) error {
	url := fmt.Sprintf("%s/upload?result=%d", c.ServerURL, resultID)
	if appErr != nil {
		url += "&failed=1"
		output = nil
	}
	var lastErr error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			c.retryPause(ctx)
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		req, rerr := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(output))
		if rerr != nil {
			return rerr
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := c.httpc.Do(req)
		if err != nil {
			lastErr = fmt.Errorf("boinc: upload result %d: %w", resultID, err)
			continue
		}
		status := resp.StatusCode
		after := parseRetryAfter(resp)
		resp.Body.Close()
		switch {
		case status == http.StatusOK || status == http.StatusGone:
			return nil
		case status == http.StatusTooManyRequests:
			// Shed by admission control: honour the advisory before the
			// next attempt instead of the short default pause.
			lastErr = fmt.Errorf("boinc: upload result %d: %w", resultID, &RetryAfterError{After: after})
			sleepCtx(ctx, after)
			continue
		case status >= 500:
			lastErr = fmt.Errorf("boinc: upload result %d: %d", resultID, status)
			continue
		default:
			return fmt.Errorf("boinc: upload result %d: %d", resultID, status)
		}
	}
	return lastErr
}

// spoofOutput fabricates a result for a spoofing client: bytes that look
// like an upload but cannot decode to a valid parameter vector, so the
// server-side validator rejects them.
func spoofOutput(asn Assignment) []byte {
	return []byte(fmt.Sprintf("spoofed-result-%d", asn.ResultID))
}

// corruptOutput mangles a genuine output so validation fails (the
// wrong-result behavior): truncation breaks the parameter encoding.
func corruptOutput(output []byte) []byte {
	if len(output) < 2 {
		return []byte{0xff}
	}
	return output[:len(output)/2]
}

// runOne downloads inputs, runs the app and uploads the outcome,
// honouring the server-pushed shaping: a preemption coin that drops the
// assignment without uploading (the instance was reclaimed; the slot is
// held until a replacement arrives and starts with a cold cache), and
// execution pacing that stretches the subtask to the control's minimum
// wall time times the straggler factor. A Byzantine control turns the
// client adversarial: spoofers upload fabricated bytes without running
// the app, wrong-result clients corrupt genuine output before upload,
// and deadline gamers finish the work but never return it.
func (c *Client) runOne(ctx context.Context, asn Assignment) {
	ctl := c.Control()
	if ctl.PreemptProb > 0 && c.coin(ctl.PreemptProb) {
		c.Log.Debug("instance preempted, dropping assignment", "client", c.ID, "result", asn.ResultID)
		c.mu.Lock()
		c.Preempted++
		c.cache = make(map[string][]byte)
		c.mu.Unlock()
		sleepCtx(ctx, time.Duration(ctl.PreemptHoldSeconds*float64(time.Second)))
		return
	}
	if ctl.Byzantine == ByzantineSpoof {
		// Claim credit without doing the work: no downloads, no app run,
		// just fabricated bytes uploaded immediately.
		c.Log.Debug("byzantine spoof: uploading fabricated result", "client", c.ID, "result", asn.ResultID)
		c.rttSleep(ctx)
		if ctx.Err() != nil {
			return
		}
		if err := c.upload(ctx, asn.ResultID, spoofOutput(asn), nil); err != nil {
			c.mu.Lock()
			c.Failed++
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		c.Completed++
		c.mu.Unlock()
		return
	}
	start := time.Now()
	c.rttSleep(ctx)
	inputs := make(map[string][]byte, len(asn.InputFiles))
	var appErr error
	for _, f := range asn.InputFiles {
		data, err := c.fetchInput(ctx, asn, f)
		if err != nil {
			appErr = err
			if ctx.Err() == nil {
				c.Log.Warn("input download failed, reporting result as failed",
					"client", c.ID, "result", asn.ResultID, "file", f, "err", err)
			}
			break
		}
		inputs[f] = data
	}
	var output []byte
	if appErr == nil {
		app := c.appFor(asn)
		if app == nil {
			appErr = fmt.Errorf("boinc: no application registered for %q", asn.App)
		} else {
			output, appErr = app.Run(asn, inputs)
		}
	}
	if appErr == nil && ctl.Byzantine == ByzantineWrongResult {
		// Genuine work, corrupted on the way out: the server-side
		// validator rejects the mangled encoding.
		output = corruptOutput(output)
	}
	if min := ctl.MinTaskSeconds * ctl.slow(); min > 0 {
		if pad := time.Duration(min*float64(time.Second)) - time.Since(start); pad > 0 {
			sleepCtx(ctx, pad)
		}
	}
	if ctx.Err() != nil {
		return // killed mid-task: the result is simply never uploaded
	}
	if ctl.Byzantine == ByzantineDeadlineGame {
		// Hoard the assignment: the result is never uploaded, so the
		// scheduler must expire it at its deadline and reissue.
		c.Log.Debug("byzantine deadline-game: withholding finished result", "client", c.ID, "result", asn.ResultID)
		return
	}
	c.rttSleep(ctx)
	// A finished result is too expensive to strand on a transfer hiccup:
	// like a real BOINC client's persistent transfer queue, keep retrying
	// the upload (in rounds of the usual attempts) until it lands, the
	// server rejects it outright, or the client dies.
	err := c.upload(ctx, asn.ResultID, output, appErr)
	for round := 1; err != nil && ctx.Err() == nil && round < uploadRounds; round++ {
		c.Log.Warn("upload failed, retrying", "client", c.ID, "result", asn.ResultID, "round", round, "err", err)
		c.retryPause(ctx)
		err = c.upload(ctx, asn.ResultID, output, appErr)
	}
	if err != nil {
		if ctx.Err() == nil {
			c.Log.Warn("upload abandoned, result stranded until server deadline",
				"client", c.ID, "result", asn.ResultID, "err", err)
		}
		appErr = err
	}
	c.mu.Lock()
	if appErr != nil {
		c.Failed++
	} else {
		c.Completed++
	}
	c.mu.Unlock()
}

// Step performs one scheduler round: request up to Slots assignments, run
// them concurrently, upload all results. It returns the number of
// assignments processed.
func (c *Client) Step() (int, error) {
	asns, err := c.RequestWork(c.Slots)
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	for _, asn := range asns {
		wg.Add(1)
		go func(a Assignment) {
			defer wg.Done()
			c.runOne(context.Background(), a)
		}(asn)
	}
	wg.Wait()
	return len(asns), nil
}

// freeSlots returns how many more assignments the client may start.
func (c *Client) freeSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Slots - c.busy
}

// Loop polls until ctx is cancelled or the server detaches the client.
// Each of the client's Slots runs independently — a long (or paced, or
// preempted) subtask on one slot never blocks work requests for the
// others, exactly like the paper's Tn simultaneous subtasks. Transient
// scheduler errors are retried after the poll interval; volunteer
// clients must tolerate a flaky server. Cancelling ctx is an abrupt
// death: in-flight results are abandoned, never uploaded. Loop still
// joins its slot goroutines before returning (they unwind promptly on
// a dead ctx), so the client's counters are quiescent afterwards.
func (c *Client) Loop(ctx context.Context) error {
	wake := make(chan struct{}, 1)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.Control().Detach {
			c.Log.Info("detached by server, finishing in-flight work", "client", c.ID)
			wg.Wait() // graceful: finish in-flight work first
			return ErrDetached
		}
		got := 0
		var backoff time.Duration
		if free := c.freeSlots(); free > 0 {
			c.rttSleep(ctx)
			asns, err := c.requestWork(ctx, free)
			if err != nil && ctx.Err() == nil {
				var ra *RetryAfterError
				if errors.As(err, &ra) {
					// Shed under load: back off for the server's advisory
					// plus jitter, so a whole fleet doesn't return in
					// lock-step the moment the window expires.
					c.mu.Lock()
					backoff = ra.After + time.Duration(c.rng.Int63n(int64(retryWait)))
					c.mu.Unlock()
					c.Log.Debug("scheduler shedding load, backing off",
						"client", c.ID, "after", ra.After)
				} else {
					c.Log.Warn("work request failed, retrying after poll", "client", c.ID, "err", err)
				}
			}
			if err == nil {
				got = len(asns)
				c.mu.Lock()
				c.busy += got
				c.mu.Unlock()
				for _, asn := range asns {
					wg.Add(1)
					go func(a Assignment) {
						defer wg.Done()
						c.runOne(ctx, a)
						c.mu.Lock()
						c.busy--
						c.mu.Unlock()
						select {
						case wake <- struct{}{}:
						default:
						}
					}(asn)
				}
			}
		}
		if got == 0 {
			wait := c.Poll
			if backoff > wait {
				wait = backoff
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-wake:
			case <-time.After(wait):
			}
		}
	}
}
