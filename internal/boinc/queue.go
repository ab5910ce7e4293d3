package boinc

import "slices"

// pendq is the scheduler's pending queue: every queued copy of a
// workunit, in enqueue order, indexed three ways so that no scheduler
// operation has to scan it (DESIGN.md §7).
//
//   - ents holds the copies in enqueue order. A copy's slot is its
//     sequence number — the order-only Candidate.Pos. Removal leaves a
//     tombstone (lazy deletion); compact squeezes tombstones out once
//     they outnumber the live copies, renumbering slots but never
//     reordering them.
//   - Each workunit links its queued copies (Workunit.qhead, qent.copy),
//     so taking the first queued copy or dropping every copy costs
//     O(copies).
//   - Copies are bucketed by their workunit's input-file list. A
//     client's CacheScore is the same for every member of a bucket, so a
//     class-scored policy scores each bucket once and merges the bucket
//     FIFOs instead of scoring every copy.
type pendq struct {
	ents []qent
	head int // slots before head are tombstones
	live int

	buckets []*bucket          // the non-empty buckets, in no particular order
	byKey   map[uint64]*bucket // key hash → chain of non-empty buckets
	free    *bucket            // emptied buckets, recycled through chain
}

// qent is one queued copy. Links are slots in pendq.ents, -1 for none.
type qent struct {
	wu         *Workunit // nil once removed
	b          *bucket
	prev, next int // neighbours in the bucket's FIFO
	copy       int // the workunit's next queued copy
}

// bucket is the FIFO of queued copies sharing one input-file list.
type bucket struct {
	files      []string // shared with the first workunit that opened it
	hash       uint64
	head, tail int
	slot       int     // index in pendq.buckets
	chain      *bucket // next bucket under the same hash
}

func newPendq() *pendq { return &pendq{byKey: make(map[uint64]*bucket)} }

// hashFiles is FNV-1a over the file names, each terminated so that
// ("ab","c") and ("a","bc") differ. It is computed once per workunit.
func hashFiles(files []string) uint64 {
	h := uint64(14695981039346656037)
	for _, f := range files {
		for i := 0; i < len(f); i++ {
			h = (h ^ uint64(f[i])) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return h
}

// bucketFor finds or opens the bucket for a workunit's input files.
func (q *pendq) bucketFor(wu *Workunit) *bucket {
	h := wu.filesHash
	for b := q.byKey[h]; b != nil; b = b.chain {
		if slices.Equal(b.files, wu.InputFiles) {
			return b
		}
	}
	b := q.free
	if b != nil {
		q.free = b.chain
	} else {
		b = new(bucket)
	}
	*b = bucket{files: wu.InputFiles, hash: h,
		head: -1, tail: -1, slot: len(q.buckets), chain: q.byKey[h]}
	q.byKey[h] = b
	q.buckets = append(q.buckets, b)
	return b
}

// closeBucket retires a bucket whose last copy just left.
func (q *pendq) closeBucket(b *bucket) {
	last := q.buckets[len(q.buckets)-1]
	q.buckets[b.slot], last.slot = last, b.slot
	q.buckets = q.buckets[:len(q.buckets)-1]
	if first := q.byKey[b.hash]; first == b {
		if b.chain == nil {
			delete(q.byKey, b.hash)
		} else {
			q.byKey[b.hash] = b.chain
		}
	} else {
		for first.chain != b {
			first = first.chain
		}
		first.chain = b.chain
	}
	b.files, b.chain, q.free = nil, q.free, b
}

// push queues one more copy of the workunit behind everything queued.
func (q *pendq) push(wu *Workunit) {
	at := len(q.ents)
	b := q.bucketFor(wu)
	q.ents = append(q.ents, qent{wu: wu, b: b, prev: b.tail, next: -1, copy: -1})
	if b.tail < 0 {
		b.head = at
	} else {
		q.ents[b.tail].next = at
	}
	b.tail = at
	if wu.qhead < 0 {
		wu.qhead = at
	} else {
		last := wu.qhead
		for q.ents[last].copy >= 0 {
			last = q.ents[last].copy
		}
		q.ents[last].copy = at
	}
	q.live++
}

// popFirst removes the workunit's first queued copy.
func (q *pendq) popFirst(wu *Workunit) {
	at := wu.qhead
	e := &q.ents[at]
	b := e.b
	if e.prev < 0 {
		b.head = e.next
	} else {
		q.ents[e.prev].next = e.next
	}
	if e.next < 0 {
		b.tail = e.prev
	} else {
		q.ents[e.next].prev = e.prev
	}
	if b.head < 0 {
		q.closeBucket(b)
	}
	wu.qhead = e.copy
	*e = qent{}
	q.live--
	if q.live == 0 {
		q.ents, q.head = q.ents[:0], 0
		return
	}
	for q.ents[q.head].wu == nil {
		q.head++
	}
}

// dropAll removes every queued copy of the workunit.
func (q *pendq) dropAll(wu *Workunit) {
	for wu.qhead >= 0 {
		q.popFirst(wu)
	}
}

// compactSlack keeps small queues from compacting on every few removals.
const compactSlack = 32

// compact rebuilds the queue once tombstones outnumber live copies, so
// an in-order walk stays O(live) and the slice stops growing. Callers
// invoke it between operations, never while holding slots.
func (q *pendq) compact() {
	if len(q.ents)-q.live > q.live+compactSlack {
		q.rebuild()
	}
}

// rebuild re-pushes every live copy in order: tombstones vanish and
// slots are renumbered.
func (q *pendq) rebuild() {
	all := q.ents
	for _, b := range q.buckets {
		b.files, b.chain, q.free = nil, q.free, b
	}
	clear(q.byKey)
	for i := q.head; i < len(all); i++ {
		if wu := all[i].wu; wu != nil {
			wu.qhead = -1
		}
	}
	q.ents, q.buckets, q.head, q.live = all[:0], q.buckets[:0], 0, 0
	for i := range all {
		// push writes slot q.live <= i: the write cursor never passes
		// the read cursor.
		if wu := all[i].wu; wu != nil {
			q.push(wu)
		}
	}
	clear(all[len(q.ents):])
}

// heapUp and heapDown maintain a binary min-heap under less; the merge
// cursors and the deadline heap share them.
func heapUp[T any](h []T, i int, less func(a, b T) bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func heapDown[T any](h []T, i int, less func(a, b T) bool) {
	for {
		least := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h); c++ {
			if less(h[c], h[least]) {
				least = c
			}
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
