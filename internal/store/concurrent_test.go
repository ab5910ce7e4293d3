package store

import (
	"encoding/binary"
	"sync"
	"testing"
)

// Concurrency contracts under the race detector: Strong serializes
// read-modify-write cycles (no lost updates, one version per commit);
// Eventual stays memory-safe but is allowed — expected, even — to lose
// updates in optimistic RMW races.

func encCounter(n uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], n)
	return b[:]
}

func decCounter(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func TestStrongSerializableUnderConcurrency(t *testing.T) {
	const writers, perWriter = 8, 200
	s := NewStrong()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Update("counter", func(old []byte) []byte {
					return encCounter(decCounter(old) + 1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	val, ver, err := read(s, "counter")
	if err != nil {
		t.Fatal(err)
	}
	if got := decCounter(val); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d (lost updates in a strong store)", got, writers*perWriter)
	}
	if ver != writers*perWriter {
		t.Fatalf("version = %d, want %d", ver, writers*perWriter)
	}
	if st := s.Stats(); st.LostUpdates != 0 {
		t.Fatalf("strong store reported %d lost updates", st.LostUpdates)
	}
}

func TestStrongConcurrentMultiKey(t *testing.T) {
	const writers, perWriter = 6, 100
	s := NewStrong()
	keys := []string{"model/params", "model/checkpoint", "aux"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := keys[w%len(keys)]
			for i := 0; i < perWriter; i++ {
				s.Update(key, func(old []byte) []byte {
					return encCounter(decCounter(old) + 1)
				})
			}
		}(w)
	}
	wg.Wait()
	total := uint64(0)
	for _, k := range keys {
		v, ver, err := read(s, k)
		if err != nil {
			t.Fatal(err)
		}
		// Each commit to k is one version of k and one increment: a lost
		// update would leave the count below the version.
		if decCounter(v) != ver {
			t.Fatalf("%s: counter %d at version %d", k, decCounter(v), ver)
		}
		total += decCounter(v)
	}
	if total != writers*perWriter {
		t.Fatalf("sum over keys = %d, want %d", total, writers*perWriter)
	}
}

func TestEventualLastWriteWinsRace(t *testing.T) {
	const writers, perWriter = 8, 200
	e := NewEventual(3, 4, 42)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := e.Update("counter", func(old []byte) []byte {
					return encCounter(decCounter(old) + 1)
				}); err != nil && err != ErrNotFound {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	val, ver, err := read(e, "counter")
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	got := decCounter(val)
	// Optimistic lossy RMW: the observable count plus detected lost
	// updates can never exceed the attempted total, and the version
	// counter must record every commit (nothing vanishes silently —
	// clobbered writes are *detected*, which is what LostUpdates means).
	if got > writers*perWriter {
		t.Fatalf("counter = %d, above attempted total %d", got, writers*perWriter)
	}
	if ver == 0 || ver > writers*perWriter {
		t.Fatalf("version = %d out of range (stale replica read is fine, future is not)", ver)
	}
	if st.Updates != writers*perWriter {
		t.Fatalf("Updates = %d, want %d", st.Updates, writers*perWriter)
	}
	t.Logf("eventual race: final=%d lost=%d stale=%d (attempted %d)",
		got, st.LostUpdates, st.StaleReads, writers*perWriter)
}

func TestEventualConcurrentReadersAndWriters(t *testing.T) {
	e := NewEventual(4, 8, 7)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if v, _, err := read(e, "k"); err == nil && len(v) != 8 {
					t.Errorf("torn read: %d bytes", len(v))
					return
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				e.Set("k", encCounter(uint64(w*1000+i)))
			}
		}(w)
	}
	// Writers finish first; then release the readers.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for i := 0; i < 4*300; i++ {
		// Spin until writer goroutines drain (bounded by the loop above).
		select {
		case <-done:
			i = 4 * 300
		default:
		}
	}
	close(stop)
	<-done
}

// TestViewUpdateSetConcurrent runs View, Update and Set on one key from
// several goroutines, on both backends (the eventual one with lagging
// replicas, so views are served from versions the history is about to
// drop). Every value written is one counter repeated in each word, so a
// view of a buffer that was recycled while lent — overwritten by a later
// copy — shows as words that disagree, and under -race as a data race.
func TestViewUpdateSetConcurrent(t *testing.T) {
	const words, rounds = 512, 300
	uniform := func(n uint64) []byte {
		b := make([]byte, 8*words)
		for i := 0; i < words; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], n)
		}
		return b
	}
	for _, st := range []Store{NewEventual(3, 2, 11), NewStrong()} {
		st.Set("k", uniform(0))
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					switch (g + i) % 3 {
					case 0:
						st.View("k", func(v []byte, _ uint64) {
							if len(v) != 8*words {
								t.Errorf("%s: viewed %d bytes", st.Name(), len(v))
								return
							}
							first := binary.LittleEndian.Uint64(v)
							for w := 1; w < words; w++ {
								if got := binary.LittleEndian.Uint64(v[8*w:]); got != first {
									t.Errorf("%s: torn view: word %d is %d, word 0 is %d", st.Name(), w, got, first)
									return
								}
							}
						})
					case 1:
						st.Update("k", func(old []byte) []byte {
							n := binary.LittleEndian.Uint64(old) + 1
							for w := 0; w < words; w++ {
								binary.LittleEndian.PutUint64(old[8*w:], n)
							}
							return old
						})
					case 2:
						st.Set("k", uniform(uint64(1_000_000*(g+1)+i)))
					}
				}
			}(g)
		}
		wg.Wait()
		// Two of every three operations commit, plus the first Set; an
		// eventual read may trail by up to its slowest replica's lag.
		want := uint64(1 + 6*rounds*2/3)
		if _, ver, err := read(st, "k"); err != nil || ver > want || ver+2 < want {
			t.Fatalf("%s: version %d (err %v), want %d: one per commit", st.Name(), ver, err, want)
		}
	}
}
