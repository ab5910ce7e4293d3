package core

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"vcdl/internal/nn"
	"vcdl/internal/ps"
	"vcdl/internal/store"
)

// TestTrainerConcurrentResults pushes three epochs of results through one
// Trainer from 8 goroutines (run under -race): every epoch closes exactly
// once with its full sample count, the last close — and only it — reports
// stop, and a stopped Trainer records nothing more and leaves the store
// alone.
func TestTrainerConcurrentResults(t *testing.T) {
	corpus := testCorpus(t)
	cfg := testJobConfig()
	cfg.MaxEpochs = 3
	cfg.ValSubset = 20
	group := ps.NewGroup(2, store.NewStrong(), cfg.Alpha)
	update := InitialParams(nn.NewNetwork(cfg.Builder), cfg, corpus.Train)
	if err := group.Publish(update); err != nil {
		t.Fatal(err)
	}
	tr := NewTrainer(cfg, corpus.Val, group, 1)

	results := make(chan int)
	var (
		mu     sync.Mutex
		closes []Assimilated
		wg     sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range results {
				out, err := tr.Assimilate(update, tr.Epoch())
				if err != nil {
					t.Error(err)
					continue
				}
				if out.Params != nil {
					t.Error("Assimilate returned the read-back it released")
				}
				if out.Closed {
					mu.Lock()
					closes = append(closes, out)
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < cfg.Subtasks*cfg.MaxEpochs; i++ {
		results <- i
	}
	close(results)
	wg.Wait()

	if len(closes) != cfg.MaxEpochs {
		t.Fatalf("%d epoch closes, want %d", len(closes), cfg.MaxEpochs)
	}
	sort.Slice(closes, func(i, j int) bool { return closes[i].Epoch.Epoch < closes[j].Epoch.Epoch })
	for i, c := range closes {
		if c.Epoch.Epoch != i+1 || c.Epoch.Samples != cfg.Subtasks {
			t.Errorf("close %d: epoch %d with %d samples, want epoch %d with %d", i, c.Epoch.Epoch, c.Epoch.Samples, i+1, cfg.Subtasks)
		}
		if last := i == cfg.MaxEpochs-1; c.Stop != last || (c.Final != nil) != last {
			t.Errorf("epoch %d: stop=%v final=%v, want both %v", c.Epoch.Epoch, c.Stop, c.Final != nil, last)
		}
	}

	final := closes[cfg.MaxEpochs-1].Final
	for i := 0; i < 3; i++ {
		out, err := tr.Assimilate(make([]float64, len(update)), cfg.MaxEpochs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, Assimilated{}) {
			t.Errorf("result after stop was handled: %+v", out)
		}
		if late := tr.Record(0.5, nil); late.Closed || late.Stop {
			t.Errorf("score after stop was recorded: %+v", late)
		}
	}
	if got := tr.Epoch(); got != cfg.MaxEpochs+1 {
		t.Errorf("open epoch %d after stop, want %d", got, cfg.MaxEpochs+1)
	}
	if cur, err := group.Current(); err != nil || !reflect.DeepEqual(cur, final) {
		t.Errorf("server copy changed after stop (err %v)", err)
	}
}
