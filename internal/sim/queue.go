package sim

// The engine's pending-event store: a calendar queue (O(1) amortized).
// Events are totally ordered by (at, src, seq) — time, then scheduling
// context, then that context's own sequence counter — so any correct
// priority queue dequeues in exactly the same order regardless of insertion
// order. The context in the key is what makes the order shard-independent:
// the serial loop and the parallel engine's shards insert the same events in
// different interleavings, but compare them identically.
// TestCalendarMatchesHeapOracle checks the calendar queue against a
// container/heap oracle (kept in the tests) under random insert/cancel/
// compact workloads, and TestQueueTieBreakTwoProducers pins the
// same-instant cross-producer order.

// less is the total event order: time, then scheduling context (the global
// context's src -1 ahead of node contexts ahead of transmission contexts),
// then the context's own sequence. Insertion order never participates, so
// equal-time events from different producers — two shards, or the serial
// loop visiting the same producers in any order — always pop identically.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// ---------------------------------------------------------------------------
// calendarQueue: Brown's calendar queue with heap-ordered buckets.
//
// Virtual time is divided into bucket-width windows; bucket i of nb covers
// every window w with w % nb == i (the calendar "year" is nb*width). An
// event lands in the bucket of its window; dequeue walks the calendar from
// the current window forward, popping from a bucket only while its minimum
// lies inside the window under the cursor. Each bucket is a pairing heap on
// (at, src, seq), so the bucket minimum is its root — the in-window test is
// one comparison — and pathological workloads (every event at one instant)
// degrade to a single bucket heap: O(1) push and amortized O(log n) pop,
// never worse than a binary heap.
//
// All buckets share one event store: a slab of slots with a free list,
// linked into the bucket heaps by slot index. A slot freed by pop is the
// next one push fills, and the slab keeps its capacity for the run, so once
// the queue has reached its peak population push and pop allocate nothing —
// neither per bucket nor across resizes, which only relink slots.
//
// The queue resizes (doubling/halving nb, re-deriving width from the
// observed event-time span) to hold mean occupancy at O(1), giving O(1)
// amortized push and pop: the property the engine needs to dispatch
// hundreds of millions of events at 4096-node scale, where the global
// heap's log n cache-missing comparisons per operation dominate runtime.
// The far-future tail (retransmit deadlines, fault windows) shares buckets
// with near events via the year wrap and is skipped in O(1) by the
// in-window test.
//
// The dequeue cursor is derived entirely from lastAt, the time of the most
// recently popped event. The engine guarantees no push below the current
// event time (Schedule panics on it), so every queued or future event lies
// at or after lastAt's window: anchoring the walk there — instead of
// persisting a cursor that could advance past windows where later pushes
// still land — makes the scan position always correct by construction.

const calMinBuckets = 16

// nilSlot marks an empty bucket, a missing child or sibling, and the end
// of the free list.
const nilSlot int32 = -1

// slot is one cell of the event store: a queued event and its pairing-heap
// links (first child, next sibling), or a free cell whose next links the
// free list.
type slot struct {
	ev          event
	child, next int32
	live        bool
}

type calendarQueue struct {
	slots  []slot  // the event store
	free   int32   // first free slot
	heads  []int32 // per-bucket heap root
	nb     int     // power of two
	mask   int
	width  Time
	size   int
	lastAt Time // time of the most recently popped event (the scan floor)
}

func newCalendarQueue() *calendarQueue {
	q := &calendarQueue{free: nilSlot}
	q.reinit(calMinBuckets, 256)
	return q
}

// reinit empties the bucket array, sized to nb buckets of the given width.
// The array keeps its capacity, so shrinking and regrowing reuse it.
func (q *calendarQueue) reinit(nb int, width Time) {
	if width < 1 {
		width = 1
	}
	if cap(q.heads) < nb {
		q.heads = make([]int32, nb)
	}
	q.heads = q.heads[:nb]
	for i := range q.heads {
		q.heads[i] = nilSlot
	}
	q.nb = nb
	q.mask = nb - 1
	q.width = width
}

func (q *calendarQueue) len() int { return q.size }

func (q *calendarQueue) bucket(at Time) int { return int(at/q.width) & q.mask }

func (q *calendarQueue) push(ev event) {
	i := q.free
	if i == nilSlot {
		i = int32(len(q.slots))
		q.slots = append(q.slots, slot{})
	} else {
		q.free = q.slots[i].next
	}
	q.slots[i] = slot{ev: ev, child: nilSlot, next: nilSlot, live: true}
	b := q.bucket(ev.at)
	q.heads[b] = q.meld(q.heads[b], i)
	q.size++
	if q.size > 2*q.nb {
		q.resize(q.nb * 2)
	}
}

func (q *calendarQueue) pop() event {
	b := q.findMin()
	r := q.heads[b]
	ev := q.slots[r].ev
	q.heads[b] = q.mergePairs(q.slots[r].child)
	q.release(r)
	q.size--
	q.lastAt = ev.at
	if q.size < q.nb/2 && q.nb > calMinBuckets {
		q.resize(q.nb / 2)
	}
	return ev
}

// release returns slot i to the free list, dropping the event's references.
func (q *calendarQueue) release(i int32) {
	q.slots[i] = slot{child: nilSlot, next: q.free}
	q.free = i
}

func (q *calendarQueue) peekAt() Time {
	return q.slots[q.heads[q.findMin()]].ev.at
}

// meld joins two heap roots (a may be nilSlot; b is a root with no
// sibling) and returns the new root: the larger becomes the first child of
// the smaller.
func (q *calendarQueue) meld(a, b int32) int32 {
	if a == nilSlot {
		return b
	}
	s := q.slots
	if less(&s[b].ev, &s[a].ev) {
		a, b = b, a
	}
	s[b].next = s[a].child
	s[a].child = b
	return a
}

// mergePairs melds a popped root's children (a sibling list) into one heap:
// adjacent pairs left to right, then the pairs right to left — the pairing
// heap's two-pass rule, which is what makes pop amortized O(log n).
func (q *calendarQueue) mergePairs(first int32) int32 {
	s := q.slots
	acc := nilSlot // melded pairs, in reverse order, linked through next
	for first != nilSlot {
		a := first
		b := s[a].next
		if b == nilSlot {
			s[a].next = acc
			acc = a
			break
		}
		first = s[b].next
		s[a].next, s[b].next = nilSlot, nilSlot
		m := q.meld(a, b)
		s[m].next = acc
		acc = m
	}
	root := nilSlot
	for acc != nilSlot {
		next := s[acc].next
		s[acc].next = nilSlot
		root = q.meld(root, acc)
		acc = next
	}
	return root
}

// findMin returns the index of the bucket holding the global minimum. The
// queue must be non-empty. It mutates nothing: the scan is re-anchored at
// lastAt's window each call, which pop's lastAt update advances.
func (q *calendarQueue) findMin() int {
	// Walk at most one year forward from lastAt's window: a bucket's
	// minimum is its heap root, so the in-window test is one comparison.
	w := q.lastAt / q.width
	cur := int(w) & q.mask
	top := (w + 1) * q.width
	for i := 0; i < q.nb; i++ {
		if h := q.heads[cur]; h != nilSlot && q.slots[h].ev.at < top {
			return cur
		}
		cur = (cur + 1) & q.mask
		top += q.width
	}
	// Nothing within a year: the queue is sparse relative to its calendar.
	// Direct-search the bucket roots for the global minimum.
	best := -1
	for i, h := range q.heads {
		if h == nilSlot {
			continue
		}
		if best < 0 || less(&q.slots[h].ev, &q.slots[q.heads[best]].ev) {
			best = i
		}
	}
	return best
}

// resize rebuilds the calendar with nb buckets and a width re-derived from
// the live events' time span, relinking every live slot. Amortized O(1): a
// resize at size s costs O(slab) — at most the peak population — and cannot
// recur for another Θ(s) operations.
func (q *calendarQueue) resize(nb int) {
	var hi Time
	n := 0
	for i := range q.slots {
		if s := &q.slots[i]; s.live {
			if n == 0 || s.ev.at > hi {
				hi = s.ev.at
			}
			n++
		}
	}
	// Width targeting ~2 windows per event across the live span keeps mean
	// occupancy O(1); a same-instant spike (span 0) just concentrates in
	// one bucket heap, which is the oracle's behavior anyway. The span is
	// measured from lastAt, not the queue minimum: the scan starts at
	// lastAt's window, so width must keep that distance bounded in windows.
	width := q.width
	if n > 1 {
		span := hi - q.lastAt
		if span > 0 {
			width = 2 * span / Time(n)
			if width < 1 {
				width = 1
			}
		}
	}
	q.reinit(nb, width)
	q.relink()
}

// relink rebuilds every bucket heap from the live slots.
func (q *calendarQueue) relink() {
	for i := range q.slots {
		s := &q.slots[i]
		if !s.live {
			continue
		}
		s.child, s.next = nilSlot, nilSlot
		b := q.bucket(s.ev.at)
		q.heads[b] = q.meld(q.heads[b], int32(i))
	}
}

func (q *calendarQueue) compact(dead func(*event) bool) int {
	removed := 0
	for i := range q.slots {
		if q.slots[i].live && dead(&q.slots[i].ev) {
			q.release(int32(i))
			removed++
		}
	}
	if removed > 0 {
		q.size -= removed
		q.reinit(q.nb, q.width)
		q.relink()
	}
	return removed
}
