package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/opt"
	"vcdl/internal/ps"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

// TestUploadPathBufferLifetimes runs 8 concurrent uploaders over
// replicated workunits, on each store, against a job that poisons every
// upload's vector with NaN as the handler lets go of it. On a little-endian
// host that vector is a view of the pooled body buffer, so the poison is
// the next upload overwriting that buffer. Every upload of an epoch
// carries the same vector, so on a strong store the model after each
// epoch is a pure function of the epoch count, whatever order the
// handlers interleave in: the published parameter files, FinalParams and
// the stored copy must match a serial recomputation bit for bit. On an
// eventual store with lagging replicas, which loses updates, every copy
// the evaluator scores and the stored copy must still be free of the
// poison. It also pins the lending contract: one validation per upload
// handled, each upload's vector released exactly once — canonical,
// redundant replica or not — and each blended copy read back held once
// and given back to the store exactly once.
func TestUploadPathBufferLifetimes(t *testing.T) {
	stores := []struct {
		name   string
		st     func() store.Store
		serial bool
	}{
		{"strong", func() store.Store { return store.NewStrong() }, true},
		{"eventual", func() store.Store { return store.NewEventual(3, 2, 7) }, false},
	}
	for _, sc := range stores {
		t.Run(sc.name, func(t *testing.T) { uploadPathLifetimes(t, sc.st(), sc.serial) })
	}
}

func uploadPathLifetimes(t *testing.T, st store.Store, serial bool) {
	const uploaders, subtasks, epochs = 8, 12, 3
	corpus := testCorpus(t)
	spec := MLPSpec(3*8*8, []int{24}, 10)
	spec.Layers = append([]LayerSpec{{Kind: "flatten"}}, spec.Layers...)
	builder, err := spec.Builder()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testJobConfig()
	cfg.Builder, cfg.Subtasks, cfg.MaxEpochs, cfg.ValSubset = builder, subtasks, epochs, 20
	cfg.Alpha = opt.EpochFraction{}
	d, err := NewDistributedJob(cfg, spec, corpus, 2, st, DistOptions{Replication: 2})
	if err != nil {
		t.Fatal(err)
	}
	var checks, releases, unholds, poisoned atomic.Int64
	d.check = func(blob []byte, n int, spare *[]float64) ([]float64, error) {
		checks.Add(1)
		return wire.ViewParams(blob, n, spare)
	}
	d.onRelease = func(params []float64) {
		releases.Add(1)
		for i := range params {
			params[i] = math.NaN()
		}
	}
	d.onScore = func(_ int, cur []float64) {
		if hasNaN(cur) {
			poisoned.Add(1)
		}
	}
	d.onUnhold = func([]float64) { unholds.Add(1) }
	ts := httptest.NewServer(d.Server())
	defer ts.Close()

	// clientCopy is what every upload of an epoch carries.
	clientCopy := func(epoch int) []float64 {
		wc := make([]float64, d.paramCount)
		for i := range wc {
			wc[i] = float64(epoch) + float64(i)*1e-3
		}
		return wc
	}
	blobs := make([][]byte, epochs+1)
	for e := 1; e <= epochs; e++ {
		if blobs[e], err = wire.EncodeParams(clientCopy(e)); err != nil {
			t.Fatal(err)
		}
	}

	var uploads atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < uploaders; i++ {
		cl := boinc.NewClient(fmt.Sprintf("u%d", i), ts.URL, 1, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-d.Done():
					return
				default:
				}
				asns, err := cl.RequestWork(1)
				if err != nil {
					t.Error(err)
					return
				}
				if len(asns) == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				var p SubtaskPayload
				if err := json.Unmarshal(asns[0].Payload, &p); err != nil {
					t.Error(err)
					return
				}
				if err := cl.Upload(asns[0].ResultID, blobs[p.Epoch], nil); err != nil {
					t.Error(err)
					return
				}
				uploads.Add(1)
			}
		}()
	}
	select {
	case <-d.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("job did not finish")
	}
	wg.Wait()
	evaluatorIdle(t, d)
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}

	if u := uploads.Load(); checks.Load() != u || releases.Load() != u {
		t.Fatalf("%d uploads handled, %d validations, %d releases: want one of each per upload", u, checks.Load(), releases.Load())
	}
	if held := int64(d.group.TotalAssimilations()); unholds.Load() != held {
		t.Fatalf("%d blends held a read-back, %d were given back", held, unholds.Load())
	}
	if n := poisoned.Load(); n != 0 {
		t.Fatalf("the evaluator scored %d copies that an overwritten body buffer reached", n)
	}
	if sst := d.Server().SchedStats(); sst.Invalid != 0 || sst.Completions != subtasks*epochs || int64(sst.Completions) >= uploads.Load() {
		t.Fatalf("stats %+v with %d uploads: want no invalid result, %d completions and some redundant replicas", sst, uploads.Load(), subtasks*epochs)
	}
	if final, err := d.group.Current(); err != nil || hasNaN(final) || hasNaN(res.FinalParams) {
		t.Fatalf("an overwritten body buffer reached the stored copy (err %v)", err)
	}
	if !serial {
		return
	}

	// Serial reference: start from the published epoch-1 file and blend
	// each epoch's client copy in, once per subtask.
	published := func(epoch int) []float64 {
		blob, err := boinc.NewClient("reader", ts.URL, 1, nil).Download(paramsFileName(epoch))
		if err != nil {
			t.Fatal(err)
		}
		params, err := wire.DecodeParams(blob)
		if err != nil {
			t.Fatal(err)
		}
		return params
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: word %d is %v, serial reference has %v", what, i, got[i], want[i])
			}
		}
	}
	ws := published(1)
	for e := 1; e <= epochs; e++ {
		alpha, wc := cfg.Alpha.At(e), clientCopy(e)
		for range subtasks {
			for i := range ws {
				ws[i] = alpha*ws[i] + (1-alpha)*wc[i]
			}
		}
		if e < epochs {
			same(paramsFileName(e+1), published(e+1), ws)
		}
	}
	same("FinalParams", res.FinalParams, ws)
	var match bool
	err = st.View(ps.DefaultKey, func(stored []byte, _ uint64) { match = bytes.Equal(stored, wire.EncodeRaw(ws)) })
	if err != nil || !match {
		t.Fatalf("stored copy differs from the serial reference (err %v)", err)
	}
}

// TestOverwrittenBodyLeavesModelAndQueueAlone: once an upload has been
// acked, writing over the buffer its body was read into — which the
// server's next upload does — changes neither the stored copy nor the
// read-back waiting in the evaluator's queue.
func TestOverwrittenBodyLeavesModelAndQueueAlone(t *testing.T) {
	d, _ := distTestJob(t, 5, 1)
	u := uploader{t, d, "c1"}
	taken, release := holdEvaluator(d, 5)
	defer close(release)
	var body []float64
	d.onRelease = func(params []float64) { body = params }
	u.uploadNext()
	<-taken // the evaluator is busy with ticket 1; ticket 2 will wait
	u.uploadNext()
	stored, err := d.group.Current()
	if err != nil {
		t.Fatal(err)
	}
	d.evalMu.Lock()
	queued := d.evalQueue[0].cur.Params
	d.evalMu.Unlock()
	if !slices.Equal(queued, stored) {
		t.Fatal("the queued read-back is not the stored copy")
	}
	want := slices.Clone(queued)
	for i := range body {
		body[i] = math.NaN()
	}
	if got, err := d.group.Current(); err != nil || !slices.Equal(got, stored) {
		t.Fatalf("writing over the acked upload's body changed the stored copy (err %v)", err)
	}
	if !slices.Equal(queued, want) {
		t.Fatal("writing over the acked upload's body changed the queued read-back")
	}
}

// evaluatorIdle waits until d's evaluator has stopped: a finished job's
// evaluator may still be giving back the copy it scored last.
func evaluatorIdle(t *testing.T, d *Distributed) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.evalMu.Lock()
		busy := d.evaluating
		d.evalMu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the evaluator is still running")
		}
		time.Sleep(time.Millisecond)
	}
}

func hasNaN(v []float64) bool {
	return slices.ContainsFunc(v, math.IsNaN)
}

// TestValidateRejectsAndReleases: each way an upload can be wrong is an
// invalid verdict, and what came with the verdict goes back to the pool
// through Release like any other.
func TestValidateRejectsAndReleases(t *testing.T) {
	d, _, _ := distTestSetup(t, 1)
	encode := func(p []float64) []byte {
		blob, err := wire.EncodeParams(p)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	good := make([]float64, d.paramCount)
	nan := append([]float64(nil), good...)
	nan[len(nan)/2] = math.NaN()
	inf := append([]float64(nil), good...)
	inf[0] = math.Inf(-1)
	corrupt := encode(good)
	corrupt[len(corrupt)/2] ^= 0xff
	cases := []struct {
		name  string
		blob  []byte
		valid bool
	}{
		{"right length, finite", encode(good), true},
		{"one short", encode(good[1:]), false},
		{"one long", encode(append(good, 0)), false},
		{"NaN", encode(nan), false},
		{"-Inf", encode(inf), false},
		{"corrupt", corrupt, false},
		{"empty", nil, false},
	}
	var releases int
	d.onRelease = func([]float64) { releases++ }
	for _, tc := range cases {
		dec, valid := d.validate(nil, tc.blob)
		if valid != tc.valid {
			t.Errorf("%s: valid = %v, want %v", tc.name, valid, tc.valid)
		}
		if dec == nil {
			t.Fatalf("%s: no decoded value to release", tc.name)
		}
		dec.Release()
	}
	if releases != len(cases) {
		t.Fatalf("%d releases for %d verdicts", releases, len(cases))
	}
}

// TestUploadLimitIsExact: a job's upload limit is its frame's exact
// length. A result of exactly that length is accepted; a declared
// Content-Length one byte over is answered 413 before a byte of the
// body is read.
func TestUploadLimitIsExact(t *testing.T) {
	d, _ := distTestJob(t, 5, 2)
	u := uploader{t, d, "c1"}
	asn, p, ok := u.request()
	if !ok {
		t.Fatal("scheduler has no work")
	}
	url := fmt.Sprintf("/upload?result=%d", asn.ResultID)
	blob := u.result(p)
	if len(blob) != wire.MaxEncodedSize(d.paramCount) {
		t.Fatalf("result is %d bytes, limit %d", len(blob), wire.MaxEncodedSize(d.paramCount))
	}
	var body unreadBody
	req := httptest.NewRequest("POST", url, &body)
	req.ContentLength = int64(len(blob)) + 1
	w := httptest.NewRecorder()
	d.Server().ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("one byte over the limit: %d, want 413", w.Code)
	}
	if body.read {
		t.Fatal("the oversize body was read")
	}
	u.do("POST", url, blob)
	if _, up := d.Server().Traffic(); up != int64(len(blob)) {
		t.Fatalf("bytes up = %d, want the %d of the accepted upload", up, len(blob))
	}
}

// unreadBody is a request body that records whether it was read.
type unreadBody struct{ read bool }

func (b *unreadBody) Read([]byte) (int, error) {
	b.read = true
	return 0, io.EOF
}
