package live

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/cloud"
	"vcdl/internal/core"
	"vcdl/internal/data"
	"vcdl/internal/wire"
)

// tinyFleetConfig builds a fleet config that trains in a few seconds at
// an aggressive time scale.
func tinyFleetConfig(t *testing.T, clients int) FleetConfig {
	t.Helper()
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 300, 120, 120
	dc.Seed = 3
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.SmallCNNSpec(dc.C, dc.H, dc.W, dc.Classes)
	builder, err := spec.Builder()
	if err != nil {
		t.Fatal(err)
	}
	job := core.DefaultJobConfig(builder)
	job.Subtasks = 6
	job.MaxEpochs = 2
	job.BatchSize = 25
	job.LocalPasses = 2
	job.LearningRate = 0.01
	job.ValSubset = 100
	job.Seed = 3
	return FleetConfig{
		Server:         ServerConfig{Job: job, Spec: spec, Corpus: corpus, PServers: 2},
		Fleet:          cloud.Place(cloud.DefaultFleet(clients), nil),
		TasksPerClient: 2,
		TimeScale:      1.0 / 600,
	}
}

// TestFleetRunsAndReportsVirtualUnits boots a fleet, lets it train to
// completion and checks the Result is mapped into virtual hours with
// the scheduler counters attached.
func TestFleetRunsAndReportsVirtualUnits(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second real-HTTP training run")
	}
	f, err := StartFleet(tinyFleetConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.ActiveClients()); got != 3 {
		t.Fatalf("active clients = %d, want 3", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) != 2 {
		t.Fatalf("epochs = %d, want 2", len(res.Curve.Points))
	}
	if res.Hours <= 0 || res.Hours > 24 {
		t.Fatalf("Hours = %v, want plausible virtual duration", res.Hours)
	}
	for _, p := range res.Curve.Points {
		if p.Hours <= 0 || p.Hours > res.Hours+1e-9 {
			t.Fatalf("curve point hours %v outside run duration %v", p.Hours, res.Hours)
		}
	}
	if res.Issued < 12 || res.AssignMix["paper"] != res.Issued {
		t.Fatalf("issued=%d mix=%v", res.Issued, res.AssignMix)
	}
	if res.BytesDownloaded == 0 || res.BytesUploaded == 0 {
		t.Fatal("no traffic accounted")
	}
}

// TestFleetChurnAndFailover exercises the injection surface directly:
// join, abrupt leave, graceful detach, straggler shaping and PS resize.
func TestFleetChurnAndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second real-HTTP training run")
	}
	cfg := tinyFleetConfig(t, 2)
	cfg.Server.Job.MaxEpochs = 3
	f, err := StartFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id := f.AddClient(cloud.ClientB, cloud.USWest)
	if got := len(f.ActiveClients()); got != 3 {
		t.Fatalf("active after join = %d", got)
	}
	if !f.SlowClient(id, 2.5) {
		t.Fatal("SlowClient failed")
	}
	if ctl := f.srv.D.Server().ClientControlFor(id); ctl.SlowFactor != 2.5 {
		t.Fatalf("slow factor not pushed: %+v", ctl)
	}
	f.SetPServers(1)
	f.SetPServers(3)
	if f.PServers() != 3 {
		t.Fatalf("PServers = %d, want 3", f.PServers())
	}
	if gone := f.RemoveClients(1); len(gone) != 1 || gone[0] != id {
		t.Fatalf("RemoveClients = %v, want [%s] (LIFO)", gone, id)
	}
	if !f.DetachClient(f.ActiveClients()[1]) {
		t.Fatal("DetachClient failed")
	}
	if got := len(f.ActiveClients()); got != 1 {
		t.Fatalf("active after leave+detach = %d, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	res, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curve.Points) != 3 {
		t.Fatalf("epochs = %d, want 3", len(res.Curve.Points))
	}
	if res.MaxPSUsed != 3 {
		t.Fatalf("MaxPSUsed = %d, want 3", res.MaxPSUsed)
	}
}

// TestFleetWallLimit pins the wall-clock budget: an expired context
// fails the run instead of hanging.
func TestFleetWallLimit(t *testing.T) {
	cfg := tinyFleetConfig(t, 2)
	cfg.TimeScale = 1 // absurdly slow pacing: cannot finish in time
	f, err := StartFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := f.Wait(ctx); err == nil {
		t.Fatal("Wait returned nil past its wall budget")
	}
}

// TestServerRefusesPoisonAndOversizeUploads goes through the listener
// vcdl-server runs: a right-length vector of NaNs is an invalid result
// that leaves the server copy untouched and finite, and a body longer
// than any encoding of the model is cut off with 413.
func TestServerRefusesPoisonAndOversizeUploads(t *testing.T) {
	srv, err := StartServer("127.0.0.1:0", tinyFleetConfig(t, 1).Server)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, before, err := srv.D.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cl := boinc.NewClient("mallory", srv.URL(), 2, nil)
	asns, err := cl.RequestWork(2)
	if err != nil || len(asns) != 2 {
		t.Fatalf("RequestWork = %d assignments, %v", len(asns), err)
	}

	poison := make([]float64, len(before))
	for i := range poison {
		poison[i] = math.NaN()
	}
	blob, err := wire.EncodeParams(poison)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Upload(asns[0].ResultID, blob, nil); err != nil {
		t.Fatalf("poison upload: %v (an invalid result is still acknowledged)", err)
	}
	if st := srv.D.Server().SchedStats(); st.Invalid != 1 || st.Completions != 0 {
		t.Fatalf("stats %+v, want the poison counted invalid once", st)
	}
	_, after, err := srv.D.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if math.IsNaN(after[i]) || math.IsInf(after[i], 0) || after[i] != before[i] {
			t.Fatalf("server copy word %d went from %v to %v", i, before[i], after[i])
		}
	}

	oversize := make([]byte, wire.MaxEncodedSize(len(before))+1<<16)
	resp, err := http.Post(fmt.Sprintf("%s/upload?result=%d", srv.URL(), asns[1].ResultID), "application/octet-stream", bytes.NewReader(oversize))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize upload: %d, want 413", resp.StatusCode)
	}
	if _, up := srv.D.Server().Traffic(); up != int64(len(blob)) {
		t.Fatalf("bytes up = %d, want only the %d the poison upload carried", up, len(blob))
	}
}
