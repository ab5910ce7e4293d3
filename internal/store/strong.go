package store

import (
	"encoding/binary"
	"hash/crc32"
	"sync"
)

// Strong is the MySQL stand-in: a strongly consistent store in which every
// write is a serializable transaction. A single global commit lock orders
// all read-modify-write cycles (no lost updates, ever) and each commit
// appends a checksummed record to an in-memory write-ahead log, modelling
// the durability work a relational engine performs per transaction.
type Strong struct {
	Profile LatencyProfile

	mu   sync.Mutex
	data map[string]entry
	wal  []walRecord

	counter counter
}

// walRecord is one committed transaction in the write-ahead log.
type walRecord struct {
	seq uint64
	key string
	crc uint32
	n   int
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

// Get implements Store: reads are always current.
func (s *Strong) Get(key string) ([]byte, uint64, error) {
	s.mu.Lock()
	ent, ok := s.data[key]
	s.mu.Unlock()
	if !ok {
		return nil, 0, ErrNotFound
	}
	s.counter.add(func(st *Stats) {
		st.Gets++
		st.BytesRead += uint64(len(ent.value))
		st.ModeledTime += s.Profile.Cost(len(ent.value))
	})
	return append([]byte(nil), ent.value...), ent.version, nil
}

// Set implements Store as a single-key transaction.
func (s *Strong) Set(key string, value []byte) error {
	v := append([]byte(nil), value...)
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

// commitLocked applies a write of v, which the store now owns, and
// appends the WAL record. Callers hold mu.
func (s *Strong) commitLocked(key string, v []byte) {
	ver := s.data[key].version + 1
	s.data[key] = entry{value: v, version: ver}
	var seqb [8]byte
	binary.LittleEndian.PutUint64(seqb[:], ver)
	crc := crc32.NewIEEE()
	crc.Write(seqb[:])
	crc.Write([]byte(key))
	crc.Write(v)
	s.wal = append(s.wal, walRecord{seq: ver, key: key, crc: crc.Sum32(), n: len(v)})
}

// Update implements Store as a serializable read-modify-write transaction:
// the global lock is held across the whole cycle, so concurrent updates
// apply in a serial order and no update is lost.
func (s *Strong) Update(key string, f func(old []byte) []byte) error {
	s.mu.Lock()
	old := s.data[key].value
	nv := f(append([]byte(nil), old...))
	s.commitLocked(key, nv)
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

// WALLen returns the number of committed transactions (for tests and
// reports).
func (s *Strong) WALLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.wal)
}

// VerifyWAL recomputes nothing (values are not retained per record) but
// checks the log is strictly ordered per key — the serializability witness.
func (s *Strong) VerifyWAL() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := make(map[string]uint64)
	for _, r := range s.wal {
		if r.seq != last[r.key]+1 {
			return false
		}
		last[r.key] = r.seq
	}
	return true
}

// Stats implements Store.
func (s *Strong) Stats() Stats { return s.counter.snapshot() }
