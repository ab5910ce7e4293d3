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
// (possibly stale for eventual-consistency backends).
func (s *Server) Current() ([]float64, error) { return s.CurrentInto(nil) }

// CurrentInto is Current into caller-owned memory: it fills and returns
// dst when dst has the model's length, and a new vector otherwise, so a
// caller that reads after every assimilation can recycle one vector. It
// decodes straight from the bytes the store lends, so the stored copy is
// read once and copied nowhere else.
func (s *Server) CurrentInto(dst []float64) ([]float64, error) {
	var out []float64
	var derr error
	err := s.Store.View(s.Key, func(blob []byte, _ uint64) {
		out, derr = wire.DecodeRawInto(dst, blob)
	})
	if err != nil {
		return nil, fmt.Errorf("ps: read server params: %w", err)
	}
	return out, derr
}

// Assimilate applies Equation 1 for a client parameter copy delivered
// during epoch e. It is a single read-modify-write on the shared store:
// the update is applied immediately, regardless of subtask order.
//
// The blend runs in place on the private copy Store.Update hands its
// callback, one little-endian word at a time. Reading a word with
// Float64frombits and writing the result with Float64bits is what
// DecodeRawInto and EncodeRaw do around the same expression, so the stored
// bytes — and the lengths the store's Stats count — are what the
// decode–blend–encode form produced.
func (s *Server) Assimilate(clientParams []float64, epoch int) error {
	alpha := s.Alpha.At(epoch)
	if alpha < 0 || alpha > 1 {
		return fmt.Errorf("ps: alpha %v out of [0,1] at epoch %d", alpha, epoch)
	}
	n := len(clientParams)
	err := s.Store.Update(s.Key, func(old []byte) []byte {
		if len(old) < 8 || len(old)-8 != wire.RawSize(n) || binary.LittleEndian.Uint64(old) != uint64(n) {
			// First write or schema change: adopt the client copy.
			return wire.EncodeRaw(clientParams)
		}
		for i, wc := range clientParams {
			word := old[8+8*i : 16+8*i]
			ws := math.Float64frombits(binary.LittleEndian.Uint64(word))
			binary.LittleEndian.PutUint64(word, math.Float64bits(alpha*ws+(1-alpha)*wc))
		}
		return old
	})
	if err != nil {
		return fmt.Errorf("ps: assimilate: %w", err)
	}
	s.assimilations.Add(1)
	return nil
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
