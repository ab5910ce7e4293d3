package store

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

// The lending contract of Hold and Rewrite, on both backends: a held
// version keeps its bytes however many commits pass it, a Rewrite or
// Update never writes into a held buffer, and a version's buffer reaches
// the free list exactly once, after its last hold is released and no
// read can reach it.

// uniformValue is a value of words copies of n, so a buffer that was
// recycled while someone still read it shows as words that disagree.
func uniformValue(words int, n uint64) []byte {
	b := make([]byte, 8*words)
	fillUniform(b, n)
	return b
}

func fillUniform(b []byte, n uint64) {
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], n)
	}
}

// isUniform reports whether every word of b equals the first.
func isUniform(b []byte) bool {
	for i := 8; i+8 <= len(b); i += 8 {
		if !bytes.Equal(b[i:i+8], b[:8]) {
			return false
		}
	}
	return true
}

func bothBackends() []Store { return []Store{NewEventual(3, 2, 1), NewStrong()} }

// freeListOf returns st's free list.
func freeListOf(st Store) *freeList {
	switch s := st.(type) {
	case *Eventual:
		return &s.free
	case *Strong:
		return &s.free
	}
	panic("unknown backend")
}

// onFreeList counts how often v sits on l.
func onFreeList(l *freeList, v *version) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, w := range l.vers {
		if w == v {
			n++
		}
	}
	return n
}

// TestHeldVersionSurvivesCommits: a held version keeps its bytes, byte
// for byte, through more commits than the slowest replica lags by —
// written by Set, Update and Rewrite alike — and Hold counts in Stats
// exactly what View does.
func TestHeldVersionSurvivesCommits(t *testing.T) {
	for _, st := range bothBackends() {
		st.Set("k", uniformValue(64, 1))
		before := st.Stats()
		h, err := st.Hold("k")
		if err != nil {
			t.Fatal(err)
		}
		afterHold := st.Stats()
		st.View("k", func([]byte, uint64) {})
		if afterView := st.Stats(); afterHold.Gets-before.Gets != afterView.Gets-afterHold.Gets ||
			afterHold.BytesRead-before.BytesRead != afterView.BytesRead-afterHold.BytesRead {
			t.Fatalf("%s: Hold counted %+v, View %+v", st.Name(), afterHold, afterView)
		}
		want := bytes.Clone(h.Value())
		for i := range 12 {
			n := uint64(i + 2)
			switch i % 3 {
			case 0:
				st.Set("k", uniformValue(64, n))
			case 1:
				st.Update("k", func(old []byte) []byte { fillUniform(old, n); return old })
			case 2:
				st.Rewrite("k", func(_, dst []byte) []byte { fillUniform(dst, n); return dst })
			}
			if !bytes.Equal(h.Value(), want) {
				t.Fatalf("%s: held version changed after commit %d", st.Name(), i+1)
			}
		}
		h.Release()
	}
}

// TestRewriteNeverGetsAHeldBuffer: with versions held across commits and
// released along the way, so that the free list has buffers to hand out,
// no Rewrite destination and no Update copy is a buffer someone holds —
// and some of them are recycled buffers, so the check is not vacuous.
func TestRewriteNeverGetsAHeldBuffer(t *testing.T) {
	for _, st := range bothBackends() {
		st.Set("k", uniformValue(64, 0))
		var held []Held
		seen := map[*byte]bool{}
		recycled := 0
		check := func(buf []byte) {
			for _, h := range held {
				if &buf[0] == &h.Value()[0] {
					t.Fatalf("%s: a write was handed the buffer of a held version", st.Name())
				}
			}
			if seen[&buf[0]] {
				recycled++
			}
			seen[&buf[0]] = true
		}
		for i := range 60 {
			if i%2 == 0 {
				h, err := st.Hold("k")
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, h)
			}
			if i%3 == 2 {
				held[0].Release()
				held = held[1:]
			}
			if i%4 == 3 {
				st.Update("k", func(old []byte) []byte { check(old); return old })
				continue
			}
			st.Rewrite("k", func(old, dst []byte) []byte {
				check(dst)
				fillUniform(dst, binary.LittleEndian.Uint64(old)+1)
				return dst
			})
		}
		for _, h := range held {
			h.Release()
		}
		if recycled == 0 {
			t.Fatalf("%s: no write reused a buffer", st.Name())
		}
	}
}

// TestReleaseRecyclesOnce: a version superseded while two holds are out
// stays off the free list until the second release, lands on it once
// then, and a release too many panics.
func TestReleaseRecyclesOnce(t *testing.T) {
	for _, st := range []Store{NewEventual(1, 0, 1), NewStrong()} {
		st.Set("k", uniformValue(8, 1))
		h1, err1 := st.Hold("k")
		h2, err2 := st.Hold("k")
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		free, v := freeListOf(st), h1.v
		st.Set("k", uniformValue(8, 2))
		if n := onFreeList(free, v); n != 0 {
			t.Fatalf("%s: a held version was recycled %d times", st.Name(), n)
		}
		h1.Release()
		if n := onFreeList(free, v); n != 0 {
			t.Fatalf("%s: a version still held once was recycled", st.Name())
		}
		h2.Release()
		if n := onFreeList(free, v); n != 1 {
			t.Fatalf("%s: a released, superseded version is on the free list %d times, want once", st.Name(), n)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: a release too many went unnoticed", st.Name())
				}
			}()
			h2.Release()
		}()
	}
}

// TestHoldReleaseConcurrent runs holders, Rewrites, Updates and Sets on
// one key from several goroutines, on both backends, with the race
// detector watching. A holder reads its version before and after
// yielding to the writers, so a held buffer handed to a write shows as
// a torn value and, under -race, as a data race. Afterwards every
// version on a free list is there once, with no reference left.
func TestHoldReleaseConcurrent(t *testing.T) {
	const words, rounds = 256, 300
	for _, st := range bothBackends() {
		st.Set("k", uniformValue(words, 0))
		var wg sync.WaitGroup
		for g := range 6 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range rounds {
					switch (g + i) % 4 {
					case 0:
						h, err := st.Hold("k")
						if err != nil {
							t.Error(err)
							return
						}
						first := bytes.Clone(h.Value())
						runtime.Gosched()
						if !isUniform(h.Value()) || !bytes.Equal(h.Value(), first) {
							t.Errorf("%s: a held version changed while held", st.Name())
						}
						h.Release()
					case 1:
						st.Rewrite("k", func(old, dst []byte) []byte {
							fillUniform(dst, binary.LittleEndian.Uint64(old)+1)
							return dst
						})
					case 2:
						st.Update("k", func(old []byte) []byte {
							fillUniform(old, binary.LittleEndian.Uint64(old)+1)
							return old
						})
					case 3:
						st.Set("k", uniformValue(words, uint64(1_000_000*(g+1)+i)))
					}
				}
			}()
		}
		wg.Wait()
		free := freeListOf(st)
		free.mu.Lock()
		for i, v := range free.vers {
			if r := v.refs.Load(); r != 0 {
				t.Errorf("%s: a version on the free list has %d references", st.Name(), r)
			}
			for _, w := range free.vers[i+1:] {
				if v == w {
					t.Errorf("%s: a version is on the free list twice", st.Name())
				}
			}
		}
		free.mu.Unlock()
	}
}
