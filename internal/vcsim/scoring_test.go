package vcsim

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"vcdl/internal/core"
)

// scoringConfigs are the runs the pooled-scoring tests cover: one with
// preemption and replication, one that stops on its accuracy target
// before the epoch budget, and one whose 7 subtasks per epoch are a
// multiple of no pool's bound (2 per worker: 2, 4, 16).
func scoringConfigs(t *testing.T) []struct {
	name string
	cfg  Config
} {
	preempt := backendQuickConfig(t, 5, 3)
	preempt.PreemptProb = 0.25
	preempt.Replication = 2
	preempt.TimeoutSeconds = 600
	target := backendQuickConfig(t, 1, 6)
	target.Job.TargetAccuracy = 0.7
	odd := backendQuickConfig(t, 3, 3)
	odd.Job.Subtasks = 7
	return []struct {
		name string
		cfg  Config
	}{{"preempt", preempt}, {"target-stop", target}, {"odd-subtasks", odd}}
}

// eventLog records the assimilation and epoch streams one observer sees.
type eventLog struct {
	assims []AssimEvent
	epochs []EpochEvent
}

func (l *eventLog) observer() Observer {
	return ObserverFuncs{
		Assimilate: func(e AssimEvent) { l.assims = append(l.assims, e) },
		Epoch:      func(e EpochEvent) { l.epochs = append(l.epochs, e) },
	}
}

// sameBits is reflect.DeepEqual with floats compared by bit pattern, so a
// signed zero or a NaN payload that moved counts as a difference.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !sameBits(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

func requireSameBits(t *testing.T, what string, got, want any) {
	t.Helper()
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Errorf("%s diverged from the inline reference:\n got  %+v\n want %+v", what, got, want)
	}
}

// TestPooledScoringMatchesInline checks that scoring each canonical
// result on the backend's worker pool changes no bit: every backend, at
// every pool size, delivers the inline reference's assimilation and epoch
// events, in its order and with its virtual times and queue lengths, and
// produces its Result. real and real+cached score inline; parallel and
// cached score on their pool, which the test confirms.
func TestPooledScoringMatchesInline(t *testing.T) {
	backends := []struct {
		spec   string
		pooled bool
	}{{"real", false}, {"real+cached", false}, {"parallel", true}, {"cached", true}}
	configs := scoringConfigs(t)
	if testing.Short() {
		configs = configs[:1]
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			var want eventLog
			cfg := tc.cfg
			cfg.Observer = want.observer()
			ref, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "target-stop" && len(ref.Epochs) >= cfg.Job.MaxEpochs {
				t.Fatalf("reference ran all %d epochs; the target never stopped it", len(ref.Epochs))
			}
			for _, b := range backends {
				for _, workers := range []int{1, 2, 8} {
					label := fmt.Sprintf("%s/workers=%d", b.spec, workers)
					var got eventLog
					cfg := tc.cfg
					cfg.Backend, cfg.ComputeWorkers = b.spec, workers
					cfg.Observer = got.observer()
					s, err := Start(cfg)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if pooled := s.r.pool != nil; pooled != b.pooled {
						t.Fatalf("%s: scores on a pool = %v, want %v", label, pooled, b.pooled)
					}
					res, err := s.Run()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireSameBits(t, label+": AssimEvent stream", got.assims, want.assims)
					requireSameBits(t, label+": EpochEvent stream", got.epochs, want.epochs)
					requireSameBits(t, label+": Result", stripCompute(res), stripCompute(ref))
				}
			}
		})
	}
}

// holdCounter wraps a run's pool: it counts the results the loop hands
// over and the most read-backs held at once, and slows each score so
// that the loop runs ahead of the pool and meets the bound.
type holdCounter struct {
	core.Pool
	r       *run
	goes    int
	maxHeld int
}

func (h *holdCounter) Go(job func()) <-chan struct{} {
	h.goes++
	// The loop calls Go right after it blends, before it queues the
	// score: the held read-backs are the queued ones plus this one.
	if held := len(h.r.scoring) + 1; held > h.maxHeld {
		h.maxHeld = held
	}
	return h.Pool.Go(func() {
		time.Sleep(2 * time.Millisecond)
		job()
	})
}

// TestScoreHoldsBounded checks the pooled path's bound and release: no
// more than scoresPerWorker read-backs per worker are ever blended and
// unrecorded, the bound is reached, and by the end of finish every
// blended result has been recorded, reported and released — on a run
// that completes its epochs, one that stops on its target, and one whose
// event queue drains mid-epoch when the whole fleet leaves, which leaves
// the last scores for finish to record.
func TestScoreHoldsBounded(t *testing.T) {
	completed := backendQuickConfig(t, 1, 2)
	stopped := backendQuickConfig(t, 1, 6)
	stopped.Job.TargetAccuracy = 0.7
	drained := backendQuickConfig(t, 1, 3)
	cases := []struct {
		name    string
		cfg     Config
		departH float64 // > 0: every client leaves at this virtual hour
	}{{"completed", completed, 0}, {"stopped", stopped, 0}, {"drained", drained, 0.125}}
	for _, tc := range cases {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Backend, cfg.ComputeWorkers = "parallel", workers
				assims := 0
				cfg.Observer = ObserverFuncs{Assimilate: func(AssimEvent) { assims++ }}
				s, err := Start(cfg)
				if err != nil {
					t.Fatal(err)
				}
				h := &holdCounter{Pool: s.r.pool, r: s.r}
				s.r.pool = h
				if tc.departH > 0 {
					s.Engine().ScheduleAt(tc.departH*3600, func() { s.RemoveClients(len(s.r.clients)) })
				}
				s.r.eng.RunWhile(func() bool { return !s.r.finished })
				pending := len(s.r.scoring)
				res, err := s.r.finish()
				if err != nil {
					t.Fatal(err)
				}

				bound := scoresPerWorker * workers
				if h.maxHeld != bound {
					t.Errorf("at most %d read-backs held at once, want the bound %d", h.maxHeld, bound)
				}
				if tc.departH > 0 {
					if len(res.Epochs) >= cfg.Job.MaxEpochs || pending == 0 {
						t.Fatalf("fleet departure left %d of %d epochs closed and %d scores for finish; want a mid-epoch drain",
							len(res.Epochs), cfg.Job.MaxEpochs, pending)
					}
				} else if pending != 0 {
					t.Errorf("%d scores outstanding after the run closed its last epoch", pending)
				}
				if len(s.r.scoring) != 0 {
					t.Errorf("%d read-backs still held after finish", len(s.r.scoring))
				}
				if assims != h.goes {
					t.Errorf("%d results blended, %d recorded and reported", h.goes, assims)
				}
				if len(s.r.scorers) > bound {
					t.Errorf("%d evaluators built, want at most one per held read-back (%d)", len(s.r.scorers), bound)
				}
			})
		}
	}
}
