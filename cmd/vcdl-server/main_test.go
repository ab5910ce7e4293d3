package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"vcdl/internal/core"
	"vcdl/internal/live"
)

// lockedWriter collects serve output across goroutines.
type lockedWriter struct {
	mu sync.Mutex
	b  strings.Builder
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// tinyOpts is a serve configuration that finishes in seconds: a small
// corpus, few subtasks, and a free port.
func tinyOpts() serveOptions {
	return serveOptions{
		addr:     "127.0.0.1:0",
		subtasks: 6,
		epochs:   2,
		pservers: 2,
		seed:     7,
		train:    300,
		val:      120,
	}
}

// startServe runs serve on a goroutine and returns the URL it listens
// on plus a channel with its outcome.
func startServe(t *testing.T, opts serveOptions, out *lockedWriter) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	opts.ready = ready
	errc := make(chan error, 1)
	go func() {
		_, err := serve(opts, out)
		errc <- err
	}()
	select {
	case url := <-ready:
		return url, errc
	case err := <-errc:
		t.Fatalf("serve exited before listening: %v", err)
		return "", nil
	}
}

// TestServeRunsToCompletion drives the extracted serve() with live
// clients until the epoch budget is exhausted: the handshake (job.json
// + model.json) and the full run loop over real HTTP.
func TestServeRunsToCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second real-HTTP training run")
	}
	var out lockedWriter
	url, errc := startServe(t, tinyOpts(), &out)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range []string{"c0", "c1"} {
		cfg := live.ClientConfig{ID: id, ServerURL: url, Slots: 2, Poll: 10 * time.Millisecond}
		go live.RunClient(ctx, cfg)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("training did not finish in time")
	}
	output := out.String()
	if !strings.Contains(output, "training finished: 2 epochs") {
		t.Fatalf("missing completion line in output:\n%s", output)
	}
	if !strings.Contains(output, "epoch  1") || !strings.Contains(output, "epoch  2") {
		t.Fatalf("missing per-epoch progress in output:\n%s", output)
	}
}

// TestServeSigtermCheckpointResume pins the graceful-shutdown contract:
// an interrupted server writes an epoch-stamped checkpoint, and a
// restart with the same -checkpoint resumes mid-run instead of
// retraining the finished epochs.
func TestServeSigtermCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second real-HTTP training run")
	}
	ckpt := filepath.Join(t.TempDir(), "server.ckpt")
	opts := tinyOpts()
	opts.epochs = 4
	opts.checkpoint = ckpt
	stop := make(chan os.Signal, 1)
	opts.stop = stop

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	var clients sync.WaitGroup
	defer func() { cancel(); clients.Wait() }()
	run := func(ctx context.Context, url string, ids ...string) {
		for _, id := range ids {
			cfg := live.ClientConfig{ID: id, ServerURL: url, Slots: 2, Poll: 10 * time.Millisecond}
			clients.Add(1)
			go func() {
				defer clients.Done()
				live.RunClient(ctx, cfg)
			}()
		}
	}
	// The interrupt comes once epoch 1 has closed, so the checkpoint has
	// progress worth resuming. The clients stop inside the hook, before
	// epoch 2's work exists, so no later epoch can close first.
	clientCtx, stopClients := context.WithCancel(ctx)
	closed := make(chan int, 1)
	var once sync.Once
	opts.epochClosed = func(epoch int) {
		once.Do(func() {
			stopClients()
			closed <- epoch
		})
	}
	var out lockedWriter
	url, errc := startServe(t, opts, &out)
	run(clientCtx, url, "c0", "c1")
	select {
	case epoch := <-closed:
		if epoch != 1 {
			t.Fatalf("first epoch to close = %d, want 1", epoch)
		}
	case err := <-errc:
		t.Fatalf("serve returned before epoch 1 closed (err %v):\n%s", err, out.String())
	case <-ctx.Done():
		t.Fatalf("epoch 1 never closed:\n%s", out.String())
	}
	clients.Wait()
	stop <- syscall.SIGTERM
	if err := <-errc; err != nil {
		t.Fatalf("interrupted serve: %v", err)
	}
	if !strings.Contains(out.String(), "interrupted: checkpoint written to") {
		t.Fatalf("no shutdown checkpoint reported:\n%s", out.String())
	}
	epoch, params, err := core.LoadCheckpoint(ckpt)
	if err != nil || epoch != 1 || len(params) == 0 {
		t.Fatalf("checkpoint: epoch %d (want 1), %d params, err %v", epoch, len(params), err)
	}

	// Restart with the same checkpoint file: the run resumes at epoch+1
	// and still stops at the absolute 4-epoch budget.
	opts.epochClosed = nil
	var out2 lockedWriter
	url2, errc2 := startServe(t, opts, &out2)
	run(ctx, url2, "c2", "c3")
	select {
	case err := <-errc2:
		if err != nil {
			t.Fatalf("resumed serve: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("resumed run did not finish in time")
	}
	output := out2.String()
	if !strings.Contains(output, fmt.Sprintf("resuming from checkpoint %s (epoch %d)", ckpt, epoch)) {
		t.Fatalf("restart did not resume from the checkpoint:\n%s", output)
	}
	if !strings.Contains(output, "epoch  4") {
		t.Fatalf("resumed run never reached epoch 4:\n%s", output)
	}
	if want := fmt.Sprintf("epoch %2d", epoch); strings.Contains(output, want) {
		t.Fatalf("resumed run retrained epoch %d it should have skipped:\n%s", epoch, output)
	}
	if finalEpoch, _, err := core.LoadCheckpoint(ckpt); err != nil || finalEpoch != 4 {
		t.Fatalf("final checkpoint epoch = %d (err %v), want 4", finalEpoch, err)
	}
}

// TestServeTargetReachedAndClientRejoin kills the only client mid-run,
// rejoins a replacement, and requires the run to stop early at the
// target accuracy anyway — the §III-B fault-tolerance story on the real
// HTTP stack.
func TestServeTargetReachedAndClientRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second real-HTTP training run")
	}
	opts := tinyOpts()
	opts.epochs = 30
	opts.target = 0.2              // reachable within a few epochs on the tiny corpus
	opts.timeout = 3 * time.Second // stranded work from the kill reissues quickly
	var out lockedWriter
	url, errc := startServe(t, opts, &out)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// First client dies abruptly after a burst of work.
	ctx1, kill := context.WithCancel(ctx)
	first := make(chan error, 1)
	go func() {
		_, err := live.RunClient(ctx1, live.ClientConfig{ID: "doomed", ServerURL: url, Slots: 2, Poll: 10 * time.Millisecond})
		first <- err
	}()
	time.Sleep(1500 * time.Millisecond)
	kill()
	if err := <-first; err == nil {
		t.Fatal("killed client returned nil error")
	}

	// A replacement joins and carries the run to the target.
	go live.RunClient(ctx, live.ClientConfig{ID: "replacement", ServerURL: url, Slots: 2, Poll: 10 * time.Millisecond})
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-ctx.Done():
		t.Fatal("training did not reach the target in time")
	}
	if output := out.String(); !strings.Contains(output, "stopped early: true") {
		t.Fatalf("run did not stop at target:\n%s", output)
	}
}
