package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/ps"
	"vcdl/internal/wire"
)

// uploader drives a job's server through its handlers, without a socket
// or a goroutine: one work request and one upload at a time, as one
// client.
type uploader struct {
	t  *testing.T
	d  *Distributed
	id string
}

// do serves one request and returns the body of its 200 reply.
func (u uploader) do(method, url string, body []byte) []byte {
	u.t.Helper()
	w := httptest.NewRecorder()
	u.d.Server().ServeHTTP(w, httptest.NewRequest(method, url, bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		u.t.Fatalf("%s %s: %d %s", method, url, w.Code, w.Body)
	}
	return w.Body.Bytes()
}

// request asks the scheduler for one subtask.
func (u uploader) request() (boinc.Assignment, SubtaskPayload, bool) {
	u.t.Helper()
	var reply boinc.WorkReply
	ask := fmt.Sprintf(`{"client_id":%q,"max_tasks":1}`, u.id)
	if err := json.Unmarshal(u.do("POST", "/scheduler", []byte(ask)), &reply); err != nil {
		u.t.Fatal(err)
	}
	if len(reply.Assignments) == 0 {
		return boinc.Assignment{}, SubtaskPayload{}, false
	}
	var p SubtaskPayload
	if err := json.Unmarshal(reply.Assignments[0].Payload, &p); err != nil {
		u.t.Fatal(err)
	}
	return reply.Assignments[0], p, true
}

// result is what a client that did no training would send back for p:
// the epoch's own parameter file, nudged by the shard so that no two
// results score alike.
func (u uploader) result(p SubtaskPayload) []byte {
	u.t.Helper()
	params, err := wire.DecodeParams(u.do("GET", "/download?f="+p.ParamsFile, nil))
	if err != nil {
		u.t.Fatal(err)
	}
	for i := range params {
		params[i] += 1e-3 * float64(p.Shard+1)
	}
	blob, err := wire.EncodeParams(params)
	if err != nil {
		u.t.Fatal(err)
	}
	return blob
}

// uploadNext takes the next subtask and uploads a result for it; it
// returns when the server has acked the upload.
func (u uploader) uploadNext() {
	u.t.Helper()
	asn, p, ok := u.request()
	if !ok {
		u.t.Fatal("scheduler has no work")
	}
	u.do("POST", fmt.Sprintf("/upload?result=%d", asn.ResultID), u.result(p))
}

// holdEvaluator makes d's evaluator report each ticket it takes on taken
// and then wait for release to be closed.
func holdEvaluator(d *Distributed, tickets int) (taken chan int, release chan struct{}) {
	taken, release = make(chan int, tickets), make(chan struct{})
	d.onScore = func(ticket int, _ []float64) {
		taken <- ticket
		<-release
	}
	return taken, release
}

// TestUploadAckedBeforeScored: an upload is acked once its result is
// blended, while the evaluator is still (here: held) on an earlier one;
// only the upload that fills the epoch waits, and when it returns the
// next epoch is already there to be asked for and downloaded.
func TestUploadAckedBeforeScored(t *testing.T) {
	const subtasks = 5
	d, _ := distTestJob(t, subtasks, 2)
	u := uploader{t, d, "c1"}
	taken, release := holdEvaluator(d, 2*subtasks)

	for i := 0; i < 3; i++ {
		u.uploadNext() // returning is the ack
	}
	if ticket := <-taken; ticket != 1 {
		t.Fatalf("evaluator started on ticket %d, want 1", ticket)
	}
	if depth := d.evalDepth.Value(); depth != 3 {
		t.Fatalf("%s = %v with three results acked and none scored, want 3", MetricEvalQueueDepth, depth)
	}
	if got := d.group.TotalAssimilations(); got != 3 {
		t.Fatalf("%d results blended before their acks, want 3", got)
	}
	close(release)

	u.uploadNext()
	u.uploadNext() // fills epoch 1
	res, _ := d.Result()
	if len(res.Epochs) != 1 || res.Epochs[0].Samples != subtasks {
		t.Fatalf("epochs closed when the epoch-filling upload was acked: %+v, want epoch 1 with %d samples", res.Epochs, subtasks)
	}
	if depth := d.evalDepth.Value(); depth != 0 {
		t.Fatalf("%s = %v after the epoch closed, want 0", MetricEvalQueueDepth, depth)
	}
	_, p, ok := u.request()
	if !ok || p.Epoch != 2 {
		t.Fatalf("work request right after the epoch-filling ack: got work %v for epoch %d, want epoch 2", ok, p.Epoch)
	}
	u.do("GET", "/download?f="+paramsFileName(2), nil)
}

// TestScoresRecordedInTicketOrder: with two parameter servers and two
// clients uploading at once, the evaluator scores the blended copies in
// ticket order, one at a time, and the epoch summaries are exactly what
// scoring those copies one after another in that order gives.
func TestScoresRecordedInTicketOrder(t *testing.T) {
	d, ts, cfg := distTestSetup(t, 3)
	var (
		tickets []int
		copies  [][]float64
	)
	d.onScore = func(ticket int, cur []float64) {
		tickets = append(tickets, ticket)
		copies = append(copies, slices.Clone(cur))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range []string{"c1", "c2"} {
		cl := boinc.NewClient(id, ts.URL, 1, NewTrainingApp(cfg))
		cl.Poll = 2 * time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Loop(ctx)
		}()
	}
	select {
	case <-d.Done():
	case <-ctx.Done():
		t.Fatal("job did not finish in time")
	}
	cancel()
	wg.Wait()
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}

	want := make([]int, cfg.Subtasks*cfg.MaxEpochs)
	for i := range want {
		want[i] = i + 1
	}
	if !slices.Equal(tickets, want) {
		t.Fatalf("tickets scored in order %v, want %v", tickets, want)
	}
	ev := NewEvaluator(cfg.Builder, testCorpus(t).Val, cfg.ValSubset, cfg.BatchSize*4)
	tracker := ps.NewEpochTrackerAt(cfg.Subtasks, 1)
	var replay []ps.EpochSummary
	for _, cur := range copies {
		if sum, closed := tracker.Record(ev.Accuracy(cur)); closed {
			replay = append(replay, sum)
		}
	}
	if !reflect.DeepEqual(res.Epochs, replay) {
		t.Fatalf("epoch summaries %+v differ from a sequential replay in ticket order %+v", res.Epochs, replay)
	}
}

// settled waits for the goroutine count to fall back to before.
func settled(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the job's first upload: the evaluator outlived the job", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// returnsPromptly fails the test if f is still running after a second.
func returnsPromptly(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestEvaluatorLifecycle: the evaluator exists only while results wait.
// A job that is done, or has failed with uploads held at a full queue,
// keeps no goroutine, and a result that arrives afterwards is acked at
// once and starts none.
func TestEvaluatorLifecycle(t *testing.T) {
	t.Run("done", func(t *testing.T) {
		const subtasks = 5
		d, _ := distTestJob(t, subtasks, 1)
		u := uploader{t, d, "c1"}
		before := runtime.NumGoroutine()
		p := SubtaskPayload{Epoch: 1, ParamsFile: paramsFileName(1)}
		late := u.result(p)
		for i := 0; i < subtasks; i++ {
			u.uploadNext()
		}
		select {
		case <-d.Done():
		default:
			t.Fatal("job not done when the upload that filled its last epoch was acked")
		}
		settled(t, before)

		payload, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		returnsPromptly(t, "a result after Done", func() {
			dec, _ := d.validate(nil, late)
			d.assimilate(&boinc.Workunit{Payload: payload}, late, dec)
			dec.Release()
		})
		settled(t, before)
	})

	t.Run("failed", func(t *testing.T) {
		d, _ := distTestJob(t, 3*evalQueueBound, 1)
		u := uploader{t, d, "c1"}
		before := runtime.NumGoroutine()
		taken, release := holdEvaluator(d, 3*evalQueueBound)
		for i := 0; i < evalQueueBound; i++ {
			u.uploadNext()
		}
		<-taken
		// The queue is full: the next upload is held, as it was when
		// scoring ran in the handler.
		held := make(chan struct{})
		go func() {
			defer close(held)
			u.uploadNext()
		}()
		select {
		case <-held:
			t.Fatalf("upload acked with %d results waiting to be scored", evalQueueBound)
		case <-time.After(50 * time.Millisecond):
		}
		boom := errors.New("boom")
		d.finish(boom)
		select {
		case <-held:
		case <-time.After(time.Second):
			t.Fatal("upload held at the full queue was not released when the job failed")
		}
		close(release)
		settled(t, before)
		if _, err := d.Result(); err != boom {
			t.Fatalf("Result() error %v, want %v", err, boom)
		}
		returnsPromptly(t, "an upload after the job failed", u.uploadNext)
		settled(t, before)
	})
}
