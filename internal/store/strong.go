package store

import "sync"

// Strong is the MySQL stand-in: a strongly consistent store in which every
// write is a serializable transaction. A single global commit lock orders
// all read-modify-write cycles, so no update is ever lost, and reads take
// it too, so they always see the last commit.
type Strong struct {
	Profile LatencyProfile

	mu   sync.Mutex
	data map[string]*version
	free freeList

	counter counter
}

// NewStrong creates a strongly consistent store.
func NewStrong() *Strong {
	return &Strong{
		Profile: StrongProfile,
		data:    make(map[string]*version),
	}
}

// Name implements Store.
func (s *Strong) Name() string { return "strong" }

// Hold implements Store: reads are always current.
func (s *Strong) Hold(key string) (Held, error) {
	s.mu.Lock()
	v, ok := s.data[key]
	if !ok {
		s.mu.Unlock()
		return Held{}, ErrNotFound
	}
	v.refs.Add(1) // under the lock, so no commit can drop v first
	s.mu.Unlock()
	s.counter.add(func(st *Stats) {
		st.Gets++
		st.BytesRead += uint64(len(v.value))
		st.ModeledTime += s.Profile.Cost(len(v.value))
	})
	return Held{v}, nil
}

// View implements Store as a Hold for the length of f.
func (s *Strong) View(key string, f func(value []byte, version uint64)) error {
	h, err := s.Hold(key)
	if err != nil {
		return err
	}
	f(h.v.value, h.v.num)
	h.Release()
	return nil
}

// Set implements Store as a single-key transaction.
func (s *Strong) Set(key string, value []byte) error {
	v := s.free.clone(value)
	n := len(v.value)
	s.mu.Lock()
	s.commitLocked(key, v)
	s.mu.Unlock()
	s.counter.add(func(st *Stats) {
		st.Sets++
		st.BytesWritten += uint64(n)
		st.ModeledTime += s.Profile.Cost(n)
	})
	return nil
}

// commitLocked makes v, which the store now owns, the next version of
// key. The version it replaces can no longer be read, so the store lets
// go of it. Callers hold mu.
func (s *Strong) commitLocked(key string, v *version) {
	if prev := s.data[key]; prev != nil {
		v.num = prev.num + 1
		prev.unref()
	} else {
		v.num = 1
	}
	s.data[key] = v
}

// Rewrite implements Store as a serializable read-modify-write
// transaction: the global lock is held across the whole cycle, so
// concurrent updates apply in a serial order and no update is lost.
func (s *Strong) Rewrite(key string, f func(old, dst []byte) []byte) error {
	s.mu.Lock()
	var old []byte
	if prev := s.data[key]; prev != nil {
		old = prev.value
	}
	read := len(old)
	v := s.free.take(read)
	v.value = f(old, v.value)
	written := len(v.value)
	s.commitLocked(key, v)
	s.mu.Unlock()
	s.counter.add(func(st *Stats) {
		st.Updates++
		st.Sets++
		st.Gets++
		st.BytesRead += uint64(read)
		st.BytesWritten += uint64(written)
		st.ModeledTime += s.Profile.Cost(read) + s.Profile.Cost(written)
	})
	return nil
}

// Update implements Store on Rewrite.
func (s *Strong) Update(key string, f func(old []byte) []byte) error {
	return s.Rewrite(key, privateCopy(f))
}

// Stats implements Store.
func (s *Strong) Stats() Stats { return s.counter.snapshot() }
