package store

import (
	"math/rand"
	"sync"
)

// Eventual is the Redis stand-in: a main-memory key-value store with a
// primary and ReplicaCount asynchronously updated replicas. A read is
// served by a randomly chosen replica; replica i trails the primary by
// i·ReplicaLagOps/ReplicaCount committed writes, so reads may observe
// stale versions. Rewrite and Update perform an optimistic, lock-free
// read-modify-write: under concurrency, two updates may read the same base
// version and the second write silently discards the first (a lost
// update), which is exactly the behaviour the paper accepts in exchange
// for scalability (§III-D).
type Eventual struct {
	Profile       LatencyProfile
	ReplicaCount  int
	ReplicaLagOps int

	mu      sync.RWMutex
	history map[string][]*version // most recent last; trimmed to max lag+1
	rng     *rand.Rand
	rngMu   sync.Mutex
	free    freeList

	counter counter
}

// NewEventual creates an eventual-consistency store with the given replica
// topology. lagOps is how many committed writes the slowest replica may
// trail by; 0 keeps all replicas synchronous (useful in tests).
func NewEventual(replicas, lagOps int, seed int64) *Eventual {
	if replicas < 1 {
		replicas = 1
	}
	if lagOps < 0 {
		lagOps = 0
	}
	return &Eventual{
		Profile:       EventualProfile,
		ReplicaCount:  replicas,
		ReplicaLagOps: lagOps,
		history:       make(map[string][]*version),
		rng:           rand.New(rand.NewSource(seed)),
	}
}

// Name implements Store.
func (e *Eventual) Name() string { return "eventual" }

// replicaLag returns the write-lag of replica i.
func (e *Eventual) replicaLag(i int) int {
	return i * e.ReplicaLagOps / e.ReplicaCount
}

// Hold implements Store: it reads from a random replica, which may serve
// a version up to its lag behind the primary.
func (e *Eventual) Hold(key string) (Held, error) {
	e.rngMu.Lock()
	lag := e.replicaLag(e.rng.Intn(e.ReplicaCount))
	e.rngMu.Unlock()

	e.mu.RLock()
	hist := e.history[key]
	if len(hist) == 0 {
		e.mu.RUnlock()
		return Held{}, ErrNotFound
	}
	idx := max(len(hist)-1-lag, 0)
	v := hist[idx]
	v.refs.Add(1) // under the read lock, so no commit can drop v first
	stale := idx != len(hist)-1
	e.mu.RUnlock()
	e.counter.add(func(s *Stats) {
		s.Gets++
		if stale {
			s.StaleReads++
		}
		s.BytesRead += uint64(len(v.value))
		s.ModeledTime += e.Profile.Cost(len(v.value))
	})
	return Held{v}, nil
}

// View implements Store as a Hold for the length of f.
func (e *Eventual) View(key string, f func(value []byte, version uint64)) error {
	h, err := e.Hold(key)
	if err != nil {
		return err
	}
	f(h.v.value, h.v.num)
	h.Release()
	return nil
}

// Set implements Store. The write commits on the primary immediately;
// replicas observe it later through the retained version history.
func (e *Eventual) Set(key string, value []byte) error {
	e.commit(key, e.free.clone(value), nil)
	return nil
}

// commit appends v, which the store now owns, as a new version. If base
// is non-nil it is the version the caller's read observed; a mismatch
// with the current head means a concurrent commit slipped in between and
// is being clobbered — a lost update. A version the history drops is
// served by no replica any more, so the store lets go of it.
func (e *Eventual) commit(key string, v *version, base *uint64) {
	var lost bool
	e.mu.Lock()
	hist := e.history[key]
	var cur uint64
	if len(hist) > 0 {
		cur = hist[len(hist)-1].num
	}
	if base != nil && cur != *base {
		lost = true
	}
	v.num = cur + 1
	size := len(v.value) // v may be dropped and recycled once mu is let go
	hist = append(hist, v)
	if drop := len(hist) - (e.ReplicaLagOps + 1); drop > 0 {
		for _, gone := range hist[:drop] {
			gone.unref()
		}
		n := copy(hist, hist[drop:])
		clear(hist[n:])
		hist = hist[:n]
	}
	e.history[key] = hist
	e.mu.Unlock()
	e.counter.add(func(s *Stats) {
		s.Sets++
		s.BytesWritten += uint64(size)
		if lost {
			s.LostUpdates++
		}
		s.ModeledTime += e.Profile.Cost(size)
	})
}

// Rewrite implements Store with optimistic, lossy read-modify-write: a
// Hold, f outside any lock, then a commit.
func (e *Eventual) Rewrite(key string, f func(old, dst []byte) []byte) error {
	h, err := e.Hold(key)
	if err != nil && err != ErrNotFound {
		return err
	}
	v := e.free.take(len(h.Value()))
	v.value = f(h.Value(), v.value)
	base := h.Version()
	h.Release()
	e.commit(key, v, &base)
	e.counter.add(func(s *Stats) { s.Updates++ })
	return nil
}

// Update implements Store on Rewrite.
func (e *Eventual) Update(key string, f func(old []byte) []byte) error {
	return e.Rewrite(key, privateCopy(f))
}

// Stats implements Store.
func (e *Eventual) Stats() Stats { return e.counter.snapshot() }
