// Package store provides the shared parameter storage used by the
// parameter servers. The paper stores the central model parameters as a
// single value and compares two backends: Redis, a main-memory eventual
// consistency key-value store, and MySQL, a strong consistency relational
// database (§III-D, §IV-D). This package implements both semantics:
//
//   - Eventual: asynchronously replicated last-write-wins store. Reads may
//     observe stale replicas and unsynchronized read-modify-write cycles
//     can lose updates — which the paper argues distributed training
//     tolerates.
//   - Strong: a serializable store with a global commit lock, so
//     concurrent read-modify-write transactions apply in a serial order
//     and nothing is lost — at a higher per-update cost.
//
// Both implement Store, so parameter servers are backend-agnostic. A
// LatencyProfile attaches a calibrated virtual cost to each operation; the
// experiment harness uses those costs to reproduce the paper's
// 0.87 s (Redis) vs 1.29 s (MySQL) per-update comparison without a real
// database server.
package store

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrNotFound is returned by View for missing keys.
var ErrNotFound = errors.New("store: key not found")

// Store is a key-value parameter store. Values are opaque blobs; the
// parameter server stores all model parameters under one key, exactly as
// the paper stores the whole model as a single Redis value / MySQL
// LONGBLOB.
type Store interface {
	// Name identifies the backend ("eventual" or "strong").
	Name() string
	// View calls f with the current value of key (possibly stale for
	// eventual stores) and its version. The value is the store's own
	// committed bytes, lent for the length of the call with the store's
	// lock held against writers: f must not modify them, keep them or
	// any slice of them, or call back into the store. A caller that
	// needs the bytes later copies them inside f.
	View(key string, f func(value []byte, version uint64)) error
	// Set unconditionally writes value (last write wins).
	Set(key string, value []byte) error
	// Update performs a read-modify-write cycle using the backend's
	// native concurrency semantics: serializable for Strong (no lost
	// updates), optimistic and lossy for Eventual. old is a private copy
	// (nil for a missing key): f may modify it in place and return it.
	// The store adopts whatever f returns as the stored value, without
	// copying it, so f must hand over a slice nothing else will read or
	// write: once that version is superseded (and, for Eventual, no
	// replica serves it any more) its memory is reused for a later copy.
	Update(key string, f func(old []byte) []byte) error
	// Stats returns operation counters accumulated so far.
	Stats() Stats
}

// Stats counts store activity and the modeled (virtual) time spent.
type Stats struct {
	Gets, Sets, Updates uint64
	BytesRead           uint64
	BytesWritten        uint64
	LostUpdates         uint64 // RMW cycles whose write clobbered a concurrent write
	StaleReads          uint64 // reads served from a lagging replica
	ModeledTime         time.Duration
}

// LatencyProfile is the virtual cost model of one backend, calibrated so a
// 21.2 MB parameter blob costs what the paper measured per update
// transaction.
type LatencyProfile struct {
	PerOp   time.Duration // fixed cost per operation (parse, lock, log)
	PerByte time.Duration // marginal cost per payload byte
}

// Cost returns the modeled duration of one operation moving n bytes.
func (p LatencyProfile) Cost(n int) time.Duration {
	return p.PerOp + time.Duration(n)*p.PerByte
}

// Calibrated latency profiles. The paper's measured per-update transaction
// times are 0.87 s (Redis) and 1.29 s (MySQL) for a 21.2 MB compressed
// blob; an update is one read-modify-write (Get + Set), so each operation
// is budgeted at half the measured transaction, split between a fixed
// overhead and a per-byte component. MySQL's higher fixed share models the
// commit/locking path of a strongly consistent engine.
var (
	// EventualProfile calibrates to ≈0.87 s per 21.2 MB update.
	EventualProfile = LatencyProfile{PerOp: 50 * time.Millisecond, PerByte: 18 * time.Nanosecond}
	// StrongProfile calibrates to ≈1.29 s per 21.2 MB update (≈1.5×).
	StrongProfile = LatencyProfile{PerOp: 145 * time.Millisecond, PerByte: 24 * time.Nanosecond}
)

// entry is a versioned value.
type entry struct {
	value   []byte
	version uint64
}

// maxFree bounds the free list: an eventual store with no replica lag
// and one parameter server per core never has more than a couple of
// versions in flight, and a bound keeps an idle store from holding more.
const maxFree = 4

// freeList recycles the buffers of versions no reader can reach any
// more, for the private copies the store makes. View lends committed
// bytes only for the length of a callback that runs with writers locked
// out, and a version leaves the store under the writers' lock, so once
// it has left nobody holds its memory.
type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
}

// put offers b for reuse; it is dropped when the list is full.
func (l *freeList) put(b []byte) {
	if cap(b) == 0 {
		return
	}
	l.mu.Lock()
	if len(l.bufs) < maxFree {
		l.bufs = append(l.bufs, b)
	}
	l.mu.Unlock()
}

// clone returns a private copy of v, in a recycled buffer when one is
// large enough. Like append([]byte(nil), v...), it returns nil for an
// empty v.
func (l *freeList) clone(v []byte) []byte {
	if len(v) == 0 {
		return nil
	}
	var buf []byte
	l.mu.Lock()
	for i := len(l.bufs) - 1; i >= 0; i-- {
		if cap(l.bufs[i]) >= len(v) {
			buf = l.bufs[i][:0]
			last := len(l.bufs) - 1
			l.bufs[i] = l.bufs[last]
			l.bufs[last] = nil
			l.bufs = l.bufs[:last]
			break
		}
	}
	l.mu.Unlock()
	return append(buf, v...)
}

// counter is a small mutex-protected Stats accumulator shared by backends.
type counter struct {
	mu sync.Mutex
	s  Stats
}

func (c *counter) add(f func(*Stats)) {
	c.mu.Lock()
	f(&c.s)
	c.mu.Unlock()
}

func (c *counter) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s
}

// ByName constructs a backend by its Name: "eventual" (the default when
// name is empty — one replica, no lag, like the paper's single Redis
// node) or "strong". seed feeds the eventual store's replica-routing
// RNG and is ignored by the strong store.
func ByName(name string, seed int64) (Store, error) {
	switch name {
	case "", "eventual":
		return NewEventual(1, 0, seed), nil
	case "strong":
		return NewStrong(), nil
	}
	return nil, fmt.Errorf("store: unknown backend %q (want eventual or strong)", name)
}
