// Package ps implements the paper's parameter server and its core
// contribution, the VC-ASGD asynchronous parameter update scheme
// (§III-C):
//
//	Ws ← α·Ws + (1−α)·Wc            (Equation 1)
//
// where Ws is the central server parameter copy, Wc the parameter copy
// uploaded by a client after executing a training subtask, and α the
// VC-ASGD hyperparameter. Updates are assimilated immediately in whatever
// order they arrive — the server never waits for all subtasks, which is
// what makes the scheme fault tolerant under client churn. Multiple
// parameter servers share one copy of Ws through a store.Store (§III-D).
package ps

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"vcdl/internal/opt"
	"vcdl/internal/store"
	"vcdl/internal/wire"
)

// DefaultKey is the store key holding the shared server parameter copy
// (the paper stores all parameters of a model as a single value).
const DefaultKey = "model/params"

// Server is one parameter-server process. Any number of Servers may share
// a single Store; the store's consistency model decides what concurrent
// assimilations do (lossy for eventual stores, serialized for strong).
type Server struct {
	ID    int
	Key   string
	Store store.Store
	// Alpha is the VC-ASGD hyperparameter schedule over epochs: the
	// paper evaluates constant values (0.7, 0.95, 0.999) and the "Var"
	// schedule αe = e/(e+1).
	Alpha opt.Schedule

	assimilations atomic.Int64
}

// Assimilations returns how many updates this server instance applied.
func (s *Server) Assimilations() int { return int(s.assimilations.Load()) }

// NewServer creates a parameter server bound to a shared store.
func NewServer(id int, st store.Store, alpha opt.Schedule) *Server {
	return &Server{ID: id, Key: DefaultKey, Store: st, Alpha: alpha}
}

// Publish seeds the shared parameter copy (the work generator calls this
// once with the freshly initialized model).
func (s *Server) Publish(params []float64) error {
	return s.Store.Set(s.Key, wire.EncodeRaw(params))
}

// Current returns the server parameter copy as seen through the store
// (possibly stale for eventual-consistency backends), decoded from the
// bytes the store lends into a vector of its own.
func (s *Server) Current() ([]float64, error) {
	var out []float64
	var derr error
	err := s.Store.View(s.Key, func(blob []byte, _ uint64) {
		out, derr = wire.DecodeRawInto(nil, blob)
	})
	if err != nil {
		return nil, fmt.Errorf("ps: read server params: %w", err)
	}
	return out, derr
}

// Held is the server parameter copy as one read saw it. Where the host
// allows, Params is a view of the stored words, lent by the store until
// Release; elsewhere it is a decoded copy and Release does nothing.
type Held struct {
	Params []float64
	held   store.Held
}

// Release gives the copy back to the store; call it exactly once, and
// read Params no more. Releasing the zero Held does nothing.
func (h Held) Release() { h.held.Release() }

// Hold reads the server parameter copy as Current does — the same
// replica draw, the same store Stats — without copying it: on a
// little-endian host Params is a view of the version the read saw, which
// the store keeps as it is, and out of its free list, until Release. A
// big-endian host, or a buffer not 8-byte aligned, gets a decoded copy.
func (s *Server) Hold() (Held, error) {
	h, err := s.Store.Hold(s.Key)
	if err != nil {
		return Held{}, fmt.Errorf("ps: read server params: %w", err)
	}
	blob := h.Value()
	if _, ok := rawCount(blob); ok {
		if ws := floatView(blob[8:]); ws != nil {
			return Held{Params: ws, held: h}, nil
		}
	}
	defer h.Release()
	params, err := wire.DecodeRawInto(nil, blob)
	return Held{Params: params}, err
}

// Assimilate applies Equation 1 for a client parameter copy delivered
// during epoch e. It is a single read-modify-write on the shared store:
// the update is applied immediately, regardless of subtask order.
//
// The blend runs out of place, through Store.Rewrite: it reads the old
// value the store holds for it and writes each blended word once, into
// the recycled buffer that becomes the new value. On a little-endian host
// both are read and written through []float64 views; elsewhere, or on a
// buffer not 8-byte aligned, one little-endian word at a time. Either way
// the stored bytes — and the lengths the store's Stats count — are what
// DecodeRawInto, the same expression and EncodeRaw produce, NaN payloads
// included. The blend runs outside the store's lock on an eventual store,
// so two servers that read the same version lose one update, as before.
func (s *Server) Assimilate(clientParams []float64, epoch int) error {
	alpha := s.Alpha.At(epoch)
	if alpha < 0 || alpha > 1 {
		return fmt.Errorf("ps: alpha %v out of [0,1] at epoch %d", alpha, epoch)
	}
	// Equation 1 is written as ws·α − (−(1−α))·wc, which is ws·α +
	// (1−α)·wc bit for bit. When both terms are NaN, amd64 and arm64 keep
	// the payload of the first operand, and the decode–blend–encode
	// reference keeps the stored term's. An add is commutative, and the
	// register allocator has put either term first depending on the code
	// around the loop; a subtraction's operands stay in order. Each
	// product is rounded by float64(...) so that no GOARCH fuses it into a
	// multiply-add.
	negBeta := -(1 - alpha)
	n := len(clientParams)
	err := s.Store.Rewrite(s.Key, func(old, dst []byte) []byte {
		if m, ok := rawCount(old); !ok || m != n {
			// First write or schema change: adopt the client copy.
			return wire.EncodeRaw(clientParams)
		}
		copy(dst[:8], old[:8])
		if ws, out := floatView(old[8:]), floatView(dst[8:]); ws != nil && out != nil {
			ws, wc := ws[:len(out)], clientParams[:len(out)]
			for i := range out {
				out[i] = float64(alpha*ws[i]) - float64(negBeta*wc[i])
			}
			return dst
		}
		for i, wc := range clientParams {
			ws := math.Float64frombits(binary.LittleEndian.Uint64(old[8+8*i:]))
			binary.LittleEndian.PutUint64(dst[8+8*i:], math.Float64bits(float64(alpha*ws)-float64(negBeta*wc)))
		}
		return dst
	})
	if err != nil {
		return fmt.Errorf("ps: assimilate: %w", err)
	}
	s.assimilations.Add(1)
	return nil
}

// rawCount returns the parameter count of a well-formed store value:
// a count word that matches the words after it.
func rawCount(blob []byte) (int, bool) {
	if len(blob) < 8 || (len(blob)-8)%8 != 0 {
		return 0, false
	}
	n := (len(blob) - 8) / 8
	return n, binary.LittleEndian.Uint64(blob) == uint64(n)
}

// nativeWords reports whether this host keeps a float64 in memory as its
// little-endian bits, the layout of a store value's words. Tests turn it
// off to run the portable loop.
var nativeWords = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatView returns words as a []float64 that shares its memory, or nil
// when the host's byte order or the buffer's alignment rules one out (or
// words is empty). Every buffer a store makes is heap-allocated from
// offset 0, so a value's words, 8 bytes in, are aligned.
func floatView(words []byte) []float64 {
	if !nativeWords || len(words) == 0 {
		return nil
	}
	p := unsafe.Pointer(unsafe.SliceData(words))
	if uintptr(p)%8 != 0 {
		return nil
	}
	return unsafe.Slice((*float64)(p), len(words)/8)
}

// Group is a set of parameter servers sharing one store, with BOINC's
// even load distribution: "BOINC evenly distributes the load to multiple
// parameter servers. Only one parameter server processes the update from
// a training subtask" (§III-D).
type Group struct {
	servers []*Server
	next    int
	mu      sync.Mutex
}

// NewGroup creates n parameter servers over the shared store.
func NewGroup(n int, st store.Store, alpha opt.Schedule) *Group {
	if n < 1 {
		n = 1
	}
	g := &Group{}
	for i := 0; i < n; i++ {
		g.servers = append(g.servers, NewServer(i, st, alpha))
	}
	return g
}

// Size returns the number of parameter servers.
func (g *Group) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.servers)
}

// Resize grows or shrinks the pool to n servers (minimum 1), the
// failover/recovery hook of the real-mode scenario driver: shrinking
// models PS processes dying (their queued updates drain through the
// survivors, which share the same store), growing models standbys
// joining. It returns the new size.
func (g *Group) Resize(n int) int {
	if n < 1 {
		n = 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.servers) < n {
		g.servers = append(g.servers, NewServer(len(g.servers), g.servers[0].Store, g.servers[0].Alpha))
	}
	g.servers = g.servers[:n]
	return len(g.servers)
}

// Pick returns the next server round-robin (the even load split).
func (g *Group) Pick() *Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.servers[g.next%len(g.servers)]
	g.next++
	return s
}

// Server returns server i.
func (g *Group) Server(i int) *Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.servers[i]
}

// first returns server 0 under the lock (Resize may be concurrently
// swapping the slice; server 0 always survives a resize).
func (g *Group) first() *Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.servers[0]
}

// Publish seeds the shared copy via the first server.
func (g *Group) Publish(params []float64) error { return g.first().Publish(params) }

// Current reads the shared copy via the first server.
func (g *Group) Current() ([]float64, error) { return g.first().Current() }

// TotalAssimilations sums per-server counters. A Resize can drop
// servers (and their counts) mid-run; the survivors' counters persist.
func (g *Group) TotalAssimilations() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, s := range g.servers {
		n += s.Assimilations()
	}
	return n
}
