package store

import "sync"

// Strong is the MySQL stand-in: a strongly consistent store in which every
// write is a serializable transaction. A single global commit lock orders
// all read-modify-write cycles, so no update is ever lost, and reads take
// it too, so they always see the last commit.
type Strong struct {
	Profile LatencyProfile

	mu   sync.Mutex
	data map[string]entry
	free freeList

	counter counter
}

// NewStrong creates a strongly consistent store.
func NewStrong() *Strong {
	return &Strong{
		Profile: StrongProfile,
		data:    make(map[string]entry),
	}
}

// Name implements Store.
func (s *Strong) Name() string { return "strong" }

// View implements Store: reads are always current.
func (s *Strong) View(key string, f func(value []byte, version uint64)) error {
	s.mu.Lock()
	ent, ok := s.data[key]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	f(ent.value, ent.version)
	s.mu.Unlock()
	s.counter.add(func(st *Stats) {
		st.Gets++
		st.BytesRead += uint64(len(ent.value))
		st.ModeledTime += s.Profile.Cost(len(ent.value))
	})
	return nil
}

// Set implements Store as a single-key transaction.
func (s *Strong) Set(key string, value []byte) error {
	v := s.free.clone(value)
	s.mu.Lock()
	s.commitLocked(key, v)
	s.mu.Unlock()
	s.counter.add(func(st *Stats) {
		st.Sets++
		st.BytesWritten += uint64(len(v))
		st.ModeledTime += s.Profile.Cost(len(v))
	})
	return nil
}

// commitLocked makes v, which the store now owns, the next version of
// key. The version it replaces can no longer be viewed, so its buffer
// goes to the free list. Callers hold mu.
func (s *Strong) commitLocked(key string, v []byte) {
	prev := s.data[key]
	s.data[key] = entry{value: v, version: prev.version + 1}
	s.free.put(prev.value)
}

// Update implements Store as a serializable read-modify-write transaction:
// the global lock is held across the whole cycle, so concurrent updates
// apply in a serial order and no update is lost.
func (s *Strong) Update(key string, f func(old []byte) []byte) error {
	s.mu.Lock()
	old := s.data[key].value
	nv := f(s.free.clone(old))
	s.commitLocked(key, nv) // old goes to the free list here
	s.mu.Unlock()
	s.counter.add(func(st *Stats) {
		st.Updates++
		st.Sets++
		st.Gets++
		st.BytesRead += uint64(len(old))
		st.BytesWritten += uint64(len(nv))
		st.ModeledTime += s.Profile.Cost(len(old)) + s.Profile.Cost(len(nv))
	})
	return nil
}

// Stats implements Store.
func (s *Strong) Stats() Stats { return s.counter.snapshot() }
