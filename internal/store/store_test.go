package store

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// read is the copying read the tests compare against: a clone, taken
// inside the callback, of the bytes View lends.
func read(st Store, key string) (value []byte, version uint64, err error) {
	err = st.View(key, func(v []byte, ver uint64) { value, version = bytes.Clone(v), ver })
	return value, version, err
}

func TestEventualBasicSetGet(t *testing.T) {
	e := NewEventual(3, 0, 1)
	if _, _, err := read(e, "k"); err != ErrNotFound {
		t.Fatalf("View of a missing key = %v, want ErrNotFound", err)
	}
	if err := e.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, ver, err := read(e, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "v1" || ver != 1 {
		t.Fatalf("View = %q v%d", v, ver)
	}
}

// TestViewLendsCommittedBytes: View hands f the store's own committed
// bytes, not a copy — two views of one version see the same memory —
// while the old value Update hands its callback is a private copy:
// writing it changes nothing a reader sees until f returns it.
func TestViewLendsCommittedBytes(t *testing.T) {
	for _, st := range []Store{NewEventual(1, 0, 1), NewStrong()} {
		st.Set("k", []byte("abc"))
		var first, second *byte
		st.View("k", func(v []byte, _ uint64) { first = &v[0] })
		st.View("k", func(v []byte, _ uint64) { second = &v[0] })
		if first != second {
			t.Fatalf("%s: two views of one version saw different memory", st.Name())
		}
		st.Update("k", func(old []byte) []byte {
			if &old[0] == first {
				t.Fatalf("%s: Update handed its callback the committed bytes", st.Name())
			}
			old[0] = 'X'
			if st.Name() == "strong" {
				return old // f runs under the commit lock: no reader can look
			}
			if got, _, _ := read(st, "k"); string(got) != "abc" {
				t.Fatalf("%s: a write to old showed before the commit: %q", st.Name(), got)
			}
			return old
		})
		if got, _, _ := read(st, "k"); string(got) != "Xbc" {
			t.Fatalf("%s: stored %q after the update, want \"Xbc\"", st.Name(), got)
		}
	}
}

func TestEventualStaleReads(t *testing.T) {
	// With a big replication lag and several replicas, reads right after a
	// burst of writes should sometimes observe old versions.
	e := NewEventual(4, 12, 42)
	for i := 0; i < 3; i++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(i))
		e.Set("k", b[:])
	}
	stale := 0
	for i := 0; i < 200; i++ {
		_, ver, err := read(e, "k")
		if err != nil {
			t.Fatal(err)
		}
		if ver < 3 {
			stale++
		}
	}
	if stale == 0 {
		t.Fatal("expected some stale reads with lagging replicas")
	}
	if e.Stats().StaleReads == 0 {
		t.Fatal("StaleReads counter not incremented")
	}
}

func TestEventualLostUpdatesUnderConcurrency(t *testing.T) {
	// 8 goroutines × 50 increments with optimistic RMW on a counter: a
	// commit whose base went stale clobbers the head, so the final value
	// may fall below 400, and every such commit must be counted. This is
	// the §III-D behaviour the paper trades for scalability.
	e := NewEventual(1, 0, 7)
	e.Set("n", make([]byte, 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				e.Update("n", func(old []byte) []byte {
					v := binary.LittleEndian.Uint64(old)
					nb := make([]byte, 8)
					binary.LittleEndian.PutUint64(nb, v+1)
					return nb
				})
			}
		}()
	}
	wg.Wait()
	v, _, _ := read(e, "n")
	got := binary.LittleEndian.Uint64(v)
	st := e.Stats()
	// final + LostUpdates == 400 does not hold: one clobbering commit
	// whose base is k versions old discards k increments and counts
	// once. What commit guarantees is that each write stores an earlier
	// value + 1, and that any write from a stale base is detected.
	if st.Updates != 400 {
		t.Fatalf("Updates = %d, want 400", st.Updates)
	}
	if got > 400 {
		t.Fatalf("final value %d exceeds the 400 increments made", got)
	}
	if got < 400 && st.LostUpdates == 0 {
		t.Fatalf("final value %d < 400 but no lost update was counted", got)
	}
}

func TestStrongNoLostUpdatesUnderConcurrency(t *testing.T) {
	s := NewStrong()
	s.Set("n", make([]byte, 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Update("n", func(old []byte) []byte {
					v := binary.LittleEndian.Uint64(old)
					nb := make([]byte, 8)
					binary.LittleEndian.PutUint64(nb, v+1)
					return nb
				})
			}
		}()
	}
	wg.Wait()
	v, ver, _ := read(s, "n")
	if got := binary.LittleEndian.Uint64(v); got != 400 {
		t.Fatalf("strong store lost updates: %d != 400", got)
	}
	// Serial order: 1 initial Set + 400 updates, each its own version.
	if ver != 401 {
		t.Fatalf("version = %d, want 401", ver)
	}
}

func TestStrongViewMissing(t *testing.T) {
	s := NewStrong()
	if _, _, err := read(s, "missing"); err != ErrNotFound {
		t.Fatalf("err = %v", err)
	}
}

func TestStrongVersionsMonotonic(t *testing.T) {
	s := NewStrong()
	var prev uint64
	for i := 0; i < 10; i++ {
		s.Set("k", []byte{byte(i)})
		_, ver, err := read(s, "k")
		if err != nil {
			t.Fatal(err)
		}
		if ver <= prev {
			t.Fatalf("version not monotonic: %d after %d", ver, prev)
		}
		prev = ver
	}
}

// TestLatencyCalibrationMatchesPaper verifies the modeled per-update cost
// of a 21.2 MB blob is ≈0.87 s for the eventual store and ≈1.29 s for the
// strong store, the paper's measured numbers, with the strong/eventual
// ratio ≈1.5×.
func TestLatencyCalibrationMatchesPaper(t *testing.T) {
	const blob = 21_200_000 // 21.2 MB compressed parameter file
	// An update is Get + Set of the blob.
	ev := 2 * EventualProfile.Cost(blob)
	st := 2 * StrongProfile.Cost(blob)
	if ev < 800*time.Millisecond || ev > 940*time.Millisecond {
		t.Fatalf("eventual update cost %v, want ≈870 ms", ev)
	}
	if st < 1200*time.Millisecond || st > 1380*time.Millisecond {
		t.Fatalf("strong update cost %v, want ≈1290 ms", st)
	}
	ratio := float64(st) / float64(ev)
	if ratio < 1.35 || ratio > 1.65 {
		t.Fatalf("strong/eventual ratio %.2f, want ≈1.5", ratio)
	}
}

func TestModeledTimeAccumulates(t *testing.T) {
	e := NewEventual(1, 0, 1)
	e.Set("k", make([]byte, 1000))
	read(e, "k")
	if e.Stats().ModeledTime <= 0 {
		t.Fatal("ModeledTime not accumulated")
	}
	s := NewStrong()
	s.Update("k", func([]byte) []byte { return make([]byte, 10) })
	if s.Stats().ModeledTime <= 0 {
		t.Fatal("strong ModeledTime not accumulated")
	}
}

func TestStatsCounting(t *testing.T) {
	e := NewEventual(2, 0, 3)
	e.Set("a", []byte("xy"))
	read(e, "a")
	e.Update("a", func(old []byte) []byte { return append(old, 'z') })
	st := e.Stats()
	if st.Sets != 2 { // Set + the write half of Update
		t.Fatalf("Sets = %d, want 2", st.Sets)
	}
	if st.Gets != 2 { // Get + the read half of Update
		t.Fatalf("Gets = %d, want 2", st.Gets)
	}
	if st.Updates != 1 {
		t.Fatalf("Updates = %d, want 1", st.Updates)
	}
	if st.BytesWritten != 2+3 {
		t.Fatalf("BytesWritten = %d, want 5", st.BytesWritten)
	}
}

// TestUpdateAdoptsReturnedBuffer pins the ownership rule of Update on both
// backends: old is a private copy, what f returns becomes the stored
// value without another copy, Set still copies, and the counters read
// what they read when Update re-copied the value.
func TestUpdateAdoptsReturnedBuffer(t *testing.T) {
	for _, st := range []Store{NewEventual(1, 0, 1), NewStrong()} {
		seed := []byte("abc")
		st.Set("k", seed)
		seed[0] = 'X' // Set copied: the caller's slice is still its own
		var handed []byte
		st.Update("k", func(old []byte) []byte {
			old[1] = 'B' // in place, on the private copy
			handed = append(old, 'd')
			return handed
		})
		got, _, err := read(st, "k")
		if err != nil || string(got) != "aBcd" {
			t.Fatalf("%s: stored %q (err %v), want \"aBcd\"", st.Name(), got, err)
		}
		got[0] = 'Y' // read cloned
		handed[3] = 'D'
		if got, _, _ = read(st, "k"); string(got) != "aBcD" {
			t.Fatalf("%s: stored %q after writing through the slice f returned: Update copied it", st.Name(), got)
		}
		stats := st.Stats()
		stats.ModeledTime = 0
		want := Stats{Gets: 3, Sets: 2, Updates: 1, BytesRead: 3 + 4 + 4, BytesWritten: 3 + 4}
		if stats != want {
			t.Fatalf("%s: stats %+v, want %+v", st.Name(), stats, want)
		}
	}
}

// Property: for any single-goroutine sequence of Set/Update operations the
// two backends converge to identical final values (consistency models only
// diverge under concurrency or replica lag).
func TestBackendsAgreeSequentiallyProperty(t *testing.T) {
	f := func(ops []byte) bool {
		e := NewEventual(1, 0, 5)
		s := NewStrong()
		apply := func(st Store, op byte) {
			switch op % 3 {
			case 0:
				st.Set("k", []byte{op})
			case 1:
				st.Update("k", func(old []byte) []byte { return append(old, op) })
			case 2:
				read(st, "k")
			}
		}
		for _, op := range ops {
			apply(e, op)
			apply(s, op)
		}
		ev, _, eerr := read(e, "k")
		sv, _, serr := read(s, "k")
		if (eerr == ErrNotFound) != (serr == ErrNotFound) {
			return false
		}
		if eerr == ErrNotFound {
			return true
		}
		if len(ev) != len(sv) {
			return false
		}
		for i := range ev {
			if ev[i] != sv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
