package hades

import "math/bits"

// Two-level event queue. The kernel spends almost all of its cycle
// budget scheduling and popping events, so the structure is tuned for
// the traffic an HDL simulation actually produces: the overwhelming
// majority of events land within a few clock periods of the current
// instant, and all events of one (time, delta) batch are popped
// together.
//
// Level 1 is a ring of laneCount time-bucketed lanes covering the
// window [base, base+laneCount): one singly-linked FIFO chain per
// distinct simulated instant. Scheduling into the window and popping a
// whole instant are O(1) with no comparisons and no heap fixups.
//
// Level 2 is an overflow binary min-heap keyed by (time, seq) that
// absorbs events beyond the window. It is touched only when an event is
// scheduled far ahead, and drained back into the lanes when the window
// is rebased onto the next far instant — so heap cost is paid per
// *far event*, not per event.
//
// Event structs are pooled on an intrusive free list: the same chain
// pointer links a pooled event, a lane chain, and is reused by the
// next-delta FIFO in the simulator. Steady-state scheduling performs no
// allocations (locked in by TestKernelSteadyStateAllocs).
//
// Ordering invariant: within one instant, events are delivered in seq
// (insertion) order. Lane chains append in seq order because seq is
// monotonic; the overflow heap orders by (time, seq); and a rebase only
// happens when the lanes are empty, so migrated events (lower seq) are
// always appended before any event scheduled after the rebase.

// laneCount is the window width in simulated ticks (power of two).
// 1024 covers ~100 periods of the default 10-tick clock.
const (
	laneCount = 1024
	laneMask  = laneCount - 1
	laneWords = laneCount / 64 // occupancy bitmap words
)

// event is a pending signal update. Events live in exactly one place at
// a time — a lane chain, the overflow heap, the simulator's next-delta
// FIFO, or the free list — and next links the chain in all but the heap.
type event struct {
	at   Time
	seq  uint64
	sig  *Signal
	val  uint64
	next *event
}

// twoLevelQueue is the scheduling core behind a Simulator: it owns every
// pending future event (the same-instant delta FIFO lives in the
// Simulator itself).
type twoLevelQueue struct {
	free *event // intrusive free list; the chain pointer is the pool link

	laneHead [laneCount]*event
	laneTail [laneCount]*event
	laneBits [laneWords]uint64 // occupancy bitmap over the lane ring
	laneLive int               // events currently in the lanes
	base     Time              // window start (inclusive); window is [base, base+laneCount)
	scan     Time              // no lane event is earlier than this

	overflow []*event // min-heap keyed (at, seq)
}

// alloc takes an event from the pool, or allocates one.
func (q *twoLevelQueue) alloc() *event {
	if e := q.free; e != nil {
		q.free = e.next
		e.next = nil
		return e
	}
	return &event{}
}

// release returns a processed event to the pool. The signal pointer is
// dropped so the pool never outlives a signal's reachability.
func (q *twoLevelQueue) release(e *event) {
	e.sig = nil
	e.next = q.free
	q.free = e
}

// len reports the number of queued events (lanes + overflow).
func (q *twoLevelQueue) len() int { return q.laneLive + len(q.overflow) }

// reset releases every queued event back to the pool and rewinds the
// window onto time zero. The pool itself and the overflow heap's
// backing array are kept, so a replayed run schedules allocation-free
// from the first event.
func (q *twoLevelQueue) reset() {
	for idx := range q.laneHead {
		for e := q.laneHead[idx]; e != nil; {
			next := e.next
			q.release(e)
			e = next
		}
		q.laneHead[idx], q.laneTail[idx] = nil, nil
	}
	for i := range q.laneBits {
		q.laneBits[i] = 0
	}
	q.laneLive = 0
	q.base, q.scan = 0, 0
	for i, e := range q.overflow {
		q.release(e)
		q.overflow[i] = nil
	}
	q.overflow = q.overflow[:0]
}

// windowEnd returns base+laneCount saturated at TimeMax.
func (q *twoLevelQueue) windowEnd() Time {
	end := q.base + laneCount
	if end < q.base {
		return TimeMax
	}
	return end
}

// schedule files a future event (e.at is strictly after the current
// instant, which guarantees it is at or after scan).
func (q *twoLevelQueue) schedule(e *event) {
	if e.at < q.windowEnd() {
		q.pushLane(e)
		return
	}
	q.pushOverflow(e)
}

func (q *twoLevelQueue) pushLane(e *event) {
	// A limit-bounded run may have advanced scan onto an instant beyond
	// its limit without processing it; an event scheduled afterwards can
	// legally land earlier, so pull scan back to keep its invariant.
	if e.at < q.scan {
		q.scan = e.at
	}
	idx := int(e.at) & laneMask
	if tail := q.laneTail[idx]; tail != nil {
		tail.next = e
	} else {
		q.laneHead[idx] = e
		q.laneBits[idx>>6] |= 1 << uint(idx&63)
	}
	q.laneTail[idx] = e
	q.laneLive++
}

// peekTime finds the earliest queued instant without committing any
// window movement. It returns ok=false when the queue is drained or the
// next instant is beyond limit; fromOverflow reports that the instant
// still lives in the overflow heap, and the caller must commitTime
// before popping it. Deferring the rebase until the caller is certain
// to process the instant (past its limit check and interrupt poll)
// keeps the window invariant `base <= now` at every point where user
// code can schedule: an event scheduled after an abandoned peek can
// never land behind the window and alias a lane.
func (q *twoLevelQueue) peekTime(limit Time) (t Time, fromOverflow, ok bool) {
	if q.laneLive == 0 {
		if len(q.overflow) == 0 {
			return 0, false, false
		}
		t = q.overflow[0].at
		if t > limit {
			return 0, false, false
		}
		return t, true, true
	}
	t = q.nextLaneTime()
	q.scan = t // safe even when t > limit: pushLane pulls scan back
	if t > limit {
		return 0, false, false
	}
	return t, false, true
}

// commitTime finalises a peeked instant: a far instant rebases the
// window onto it and migrates its in-window overflow companions.
func (q *twoLevelQueue) commitTime(t Time, fromOverflow bool) {
	if fromOverflow {
		q.rebase(t)
	}
}

// nextLaneTime returns the earliest populated instant at or after scan.
// It walks the occupancy bitmap ring, so the cost is a handful of word
// tests regardless of how sparse the window is. Requires laneLive > 0.
//
// Every set bit names a real event time in [scan, windowEnd): lane
// events are confined to the window and none precede scan, so a bit at
// ring distance d from scan is the instant scan+d with no ambiguity.
func (q *twoLevelQueue) nextLaneTime() Time {
	pos := int(q.scan) & laneMask
	wi := pos >> 6
	bit := pos & 63
	if w := q.laneBits[wi] >> uint(bit); w != 0 {
		return q.scan + Time(bits.TrailingZeros64(w))
	}
	dist := Time(64 - bit)
	for i := 1; i <= laneWords; i++ {
		if w := q.laneBits[(wi+i)&(laneWords-1)]; w != 0 {
			return q.scan + dist + Time(bits.TrailingZeros64(w))
		}
		dist += 64
	}
	// Unreachable while laneLive > 0: every lane event is in the window.
	panic("hades: event queue lane accounting corrupted")
}

// popInstant removes and returns the whole chain of events at instant t
// (which must come from nextTime), in seq order.
func (q *twoLevelQueue) popInstant(t Time) *event {
	idx := int(t) & laneMask
	head := q.laneHead[idx]
	q.laneHead[idx], q.laneTail[idx] = nil, nil
	q.laneBits[idx>>6] &^= 1 << uint(idx&63)
	for e := head; e != nil; e = e.next {
		q.laneLive--
	}
	q.scan = t + 1
	return head
}

// rebase moves the window to start at t (the next populated instant,
// with the lanes empty) and migrates every overflow event inside the
// new window into the lanes. Migration pops in (at, seq) order, so lane
// chains stay seq-ordered.
func (q *twoLevelQueue) rebase(t Time) {
	q.base, q.scan = t, t
	end := q.windowEnd()
	for len(q.overflow) > 0 && q.overflow[0].at < end {
		q.pushLane(q.popOverflow())
	}
}

func (q *twoLevelQueue) pushOverflow(e *event) {
	h := append(q.overflow, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	q.overflow = h
}

func (q *twoLevelQueue) popOverflow() *event {
	h := q.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	h = h[:n]
	i := 0
	for {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if kid+1 < n && heapLess(h[kid+1], h[kid]) {
			kid++
		}
		if !heapLess(h[kid], h[i]) {
			break
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
	q.overflow = h
	top.next = nil
	return top
}

// heapLess orders the overflow heap by (time, seq).
func heapLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
