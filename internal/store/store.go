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
	"sync/atomic"
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
	// committed bytes, lent for the length of the call: f must not
	// modify them, keep them or any slice of them. A caller that needs
	// the bytes later copies them inside f, or holds them with Hold.
	View(key string, f func(value []byte, version uint64)) error
	// Hold is View with a lend that outlives the call: it reads the
	// version View would read — the same replica draw, the same Stats —
	// and keeps it, byte for byte, until the returned Held is released,
	// however many commits pass it meanwhile. A held buffer is never
	// recycled: it goes to the free list only once it is released and no
	// read can reach it any more.
	Hold(key string) (Held, error)
	// Set unconditionally writes value (last write wins).
	Set(key string, value []byte) error
	// Rewrite performs a read-modify-write cycle out of place, using the
	// backend's native concurrency semantics: serializable for Strong
	// (no lost updates), optimistic and lossy for Eventual. old is the
	// value a read would see (nil for a missing key), held for the call;
	// f must not modify it. dst is a recycled buffer of len(old) bytes
	// that no reader can reach, with garbage contents. f returns the new
	// value: dst, once it has written all of it, or any other slice. The
	// store adopts what f returns without copying it, so f must hand
	// over a slice nothing else will read or write — never old: once
	// that version is superseded (and, for Eventual, no replica serves
	// it and nobody holds it) its memory is reused for a later value.
	Rewrite(key string, f func(old, dst []byte) []byte) error
	// Update is Rewrite with the old value handed over as a private copy:
	// f may modify old in place and return it, and the same adoption
	// rule holds for what it returns.
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

// version is one committed value of a key. refs counts the store's own
// reference, kept while a read can still reach the version, plus one per
// outstanding Hold; whoever drops the last one hands the version to the
// free list, so a buffer is recycled only once nobody can read it.
type version struct {
	value []byte
	num   uint64
	refs  atomic.Int32
	free  *freeList
}

// unref drops one reference to v.
func (v *version) unref() {
	switch n := v.refs.Add(-1); {
	case n == 0:
		v.free.put(v)
	case n < 0:
		panic("store: version released more often than it was held")
	}
}

// Held is a version of a key lent by Hold beyond the call that read it.
// Its bytes stay as they were committed, and its buffer stays off the
// free list, until Release. The zero Held holds nothing.
type Held struct{ v *version }

// Value returns the held bytes (nil for the zero Held). The caller must
// not modify them, nor read them after Release.
func (h Held) Value() []byte {
	if h.v == nil {
		return nil
	}
	return h.v.value
}

// Version returns the held version's number (0 for the zero Held).
func (h Held) Version() uint64 {
	if h.v == nil {
		return 0
	}
	return h.v.num
}

// Release gives the hold up; call it exactly once per Hold. Releasing
// the zero Held does nothing.
func (h Held) Release() {
	if h.v != nil {
		h.v.unref()
	}
}

// maxFree bounds the free list. A parameter server keeps a few versions
// in flight — the committed one, one destination per concurrent
// assimilation, and the read-backs its evaluator still holds — and a
// bound keeps an idle store from holding more.
const maxFree = 4

// freeList recycles the versions no reader can reach any more, for the
// values the store writes next.
type freeList struct {
	mu   sync.Mutex
	vers []*version
}

// put offers v, which nobody references any more, for reuse; it is
// dropped when the list is full.
func (l *freeList) put(v *version) {
	if cap(v.value) == 0 {
		return
	}
	l.mu.Lock()
	if len(l.vers) < maxFree {
		l.vers = append(l.vers, v)
	}
	l.mu.Unlock()
}

// take returns a version of its own for the caller to fill and commit,
// holding n bytes of garbage: a recycled buffer when one is large
// enough, a new one otherwise, and nil when n is 0.
func (l *freeList) take(n int) *version {
	var v *version
	if n > 0 {
		l.mu.Lock()
		for i := len(l.vers) - 1; i >= 0; i-- {
			if cap(l.vers[i].value) >= n {
				v = l.vers[i]
				last := len(l.vers) - 1
				l.vers[i] = l.vers[last]
				l.vers[last] = nil
				l.vers = l.vers[:last]
				break
			}
		}
		l.mu.Unlock()
	}
	switch {
	case v != nil:
		v.value = v.value[:n]
	case n > 0:
		v = &version{value: make([]byte, n), free: l}
	default:
		v = &version{free: l}
	}
	v.refs.Store(1)
	return v
}

// clone returns a version holding a copy of b.
func (l *freeList) clone(b []byte) *version {
	v := l.take(len(b))
	copy(v.value, b)
	return v
}

// privateCopy adapts an in-place Update callback to Rewrite: f works
// on a copy of old made in dst.
func privateCopy(f func(old []byte) []byte) func(old, dst []byte) []byte {
	return func(old, dst []byte) []byte {
		copy(dst, old)
		return f(dst)
	}
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
