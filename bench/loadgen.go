package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// poissonSchedule draws the due times of an open-loop arrival process:
// independent users, exponential gaps at the given rate, for dur. The
// schedule depends on the rng alone, never on how the system responds.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openResult is what one open-loop phase measured.
type openResult struct {
	Offered   float64   // scheduled arrivals per second
	Achieved  float64   // completed operations per second until the last ack
	LatMs     []float64 // due time → ack, per completed operation
	MaxLateMs float64   // worst start lateness: how far the generator ran behind
	Started   int
	Errors    int
	Aborted   bool // lateness passed abortLate: the rate is beyond capacity
	FirstErr  error
}

// runOpenLoop fires op on the schedule from at most conns goroutines (one
// busy connection each). An arrival whose due time has passed while every
// connection was busy starts late, and its latency is still counted from
// when it was due, so a stall is charged to every request it delayed
// instead of being silently omitted. Once an arrival would start more
// than abortLate behind, the phase stops: the backlog is growing.
func runOpenLoop(due []time.Duration, dur time.Duration, conns int, abortLate time.Duration, op func(conn int) error) openResult {
	res := openResult{Offered: float64(len(due)) / dur.Seconds()}
	var (
		next    atomic.Int64
		aborted atomic.Bool
		mu      sync.Mutex
		wg      sync.WaitGroup
		lastAck time.Time
	)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for !aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				begun := time.Now()
				late := begun.Sub(at)
				if late > abortLate {
					aborted.Store(true)
				}
				err := op(conn)
				acked := time.Now()
				mu.Lock()
				res.Started++
				if ms := late.Seconds() * 1e3; ms > res.MaxLateMs {
					res.MaxLateMs = ms
				}
				if err != nil {
					res.Errors++
					if res.FirstErr == nil {
						res.FirstErr = err
					}
				} else {
					res.LatMs = append(res.LatMs, acked.Sub(at).Seconds()*1e3)
					if acked.After(lastAck) {
						lastAck = acked
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.Aborted = aborted.Load()
	if elapsed := lastAck.Sub(start); len(res.LatMs) > 0 {
		// A phase that kept up ends with the schedule, not with its last
		// (randomly placed) arrival.
		if elapsed < dur && !res.Aborted {
			elapsed = dur
		}
		res.Achieved = float64(len(res.LatMs)) / elapsed.Seconds()
	}
	return res
}
