package vcsim

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"vcdl/internal/boinc"
	"vcdl/internal/core"
	"vcdl/internal/data"
)

// TestEnginesAgreeSingleSlot is the sim/real equivalence contract at one
// slot (DESIGN.md §2, §4, §9): the in-process runner, the simulator and
// the live HTTP server drive one core.Trainer, so with a single 1-slot
// client — one result in flight, one arrival order — the three produce
// bit-identical epoch summaries, and the two that keep the final server
// copy agree on it. The WarmstartEpochs row pins the shared start of the
// job: live once ignored the field.
func TestEnginesAgreeSingleSlot(t *testing.T) {
	dc := data.DefaultSynthConfig()
	dc.NTrain, dc.NVal, dc.NTest = 300, 100, 100
	dc.NoiseStd = 0.4
	corpus, err := data.GenerateSynth(dc)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.SmallCNNSpec(3, 8, 8, 10)
	builder, err := spec.Builder()
	if err != nil {
		t.Fatal(err)
	}
	for _, warm := range []int{0, 1} {
		t.Run(fmt.Sprintf("warmstart=%d", warm), func(t *testing.T) {
			job := core.DefaultJobConfig(builder)
			job.Subtasks = 5
			job.MaxEpochs = 3
			job.LearningRate = 0.01
			job.ValSubset = 60
			job.WarmstartEpochs = warm

			local, err := core.RunLocal(job, corpus, core.LocalConfig{Clients: 1, TasksPerClient: 1, PServers: 1})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := Run(DefaultConfig(job, corpus, 1, 1, 1))
			if err != nil {
				t.Fatal(err)
			}

			d, err := core.NewDistributed(job, spec, corpus, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(d.Server())
			defer ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cl := boinc.NewClient("c1", ts.URL, 1, core.NewTrainingApp(job))
			cl.Poll = time.Millisecond
			loopDone := make(chan struct{})
			go func() {
				defer close(loopDone)
				cl.Loop(ctx)
			}()
			select {
			case <-d.Done():
			case <-ctx.Done():
				t.Error("live job did not finish in time")
			}
			cancel()
			<-loopDone
			live, err := d.Result()
			if err != nil {
				t.Fatal(err)
			}

			if len(local.Epochs) != job.MaxEpochs {
				t.Fatalf("RunLocal closed %d epochs, want %d", len(local.Epochs), job.MaxEpochs)
			}
			if !reflect.DeepEqual(sim.Epochs, local.Epochs) {
				t.Errorf("vcsim epochs diverge from RunLocal:\n sim   %+v\n local %+v", sim.Epochs, local.Epochs)
			}
			if !reflect.DeepEqual(live.Epochs, local.Epochs) {
				t.Errorf("live epochs diverge from RunLocal:\n live  %+v\n local %+v", live.Epochs, local.Epochs)
			}
			if len(local.FinalParams) == 0 || !reflect.DeepEqual(live.FinalParams, local.FinalParams) {
				t.Errorf("live FinalParams (%d) diverge from RunLocal's (%d)", len(live.FinalParams), len(local.FinalParams))
			}
		})
	}
}
