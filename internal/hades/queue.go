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
// *far event*, not per event. A heap entry carries its event's (time,
// seq) key beside the slab index, so sifting never reads the slab.
//
// Events live in one slab, a []event the queue owns, and are named by
// their int32 slab index. The same index link chains a free slot, a
// lane chain, and the simulator's next-delta FIFO; slot 0 is never
// handed out, so index 0 ends a chain and a zeroed lane array is empty.
// An event names its signal by the signal's id, so the slab holds no
// pointer: scheduling, popping and pooling an event store no pointer,
// no GC write barrier runs on the event path, and the collector never
// scans the slab. Steady-state scheduling performs no allocations
// (locked in by TestKernelSteadyStateAllocs).
//
// alloc may grow the slab by append, which moves it, so no *event may
// be held across an alloc: Simulator.set fills its new slot before
// anything else allocates, and phase 1 of runBatch schedules nothing.
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

// event is a pending signal update, one slot of the queue's slab. An
// event lives in exactly one place at a time — a lane chain, the
// overflow heap, the simulator's next-delta FIFO, or the free list —
// and next, a slab index (0 ends the chain), links the chain in all but
// the heap. sig is the signal's id, its index in Simulator.signals.
// The struct holds no pointer (pinned by TestEventHoldsNoPointers).
type event struct {
	at   Time
	seq  uint64
	val  uint64
	sig  int32
	next int32
}

// twoLevelQueue is the scheduling core behind a Simulator: it owns the
// event slab and every pending future event (the same-instant delta
// FIFO lives in the Simulator itself, as a chain of slab indices).
type twoLevelQueue struct {
	events []event // the slab; slot 0 is never handed out
	free   int32   // free-list head; next is the pool link
	live   int     // slots handed out and not yet released: the pending events

	laneHead [laneCount]int32
	laneTail [laneCount]int32
	laneBits [laneWords]uint64 // occupancy bitmap over the lane ring
	laneUsed int               // lanes holding a chain
	base     Time              // window start (inclusive); window is [base, base+laneCount)
	scan     Time              // no lane event is earlier than this

	overflow []farEvent // min-heap keyed (at, seq)
}

// farEvent is an overflow heap entry: the event's slab index with its
// (at, seq) key copied beside it, so sifting compares heap entries
// without reading the slab.
type farEvent struct {
	at  Time
	seq uint64
	i   int32
}

// alloc takes a slot from the free list, or appends one to the slab,
// and returns its index and address. The slot's next is 0; the address
// is valid until the next alloc.
func (q *twoLevelQueue) alloc() (int32, *event) {
	q.live++
	if i := q.free; i != 0 {
		e := &q.events[i]
		q.free, e.next = e.next, 0
		return i, e
	}
	if len(q.events) == 0 {
		q.events = append(q.events, event{}) // slot 0: the end of every chain
	}
	q.events = append(q.events, event{})
	i := len(q.events) - 1
	return int32(i), &q.events[i]
}

// release returns the processed chain head..tail of n events to the
// free list in one splice.
func (q *twoLevelQueue) release(head, tail int32, n int) {
	q.events[tail].next = q.free
	q.free = head
	q.live -= n
}

// reset drops every event, queued or free, and rewinds the window onto
// time zero. The slab and the overflow heap keep their backing arrays,
// so a replayed run schedules allocation-free from the first event. The
// caller drops its own chains (the simulator's next-delta FIFO) too.
func (q *twoLevelQueue) reset() {
	if len(q.events) > 0 {
		q.events = q.events[:1]
	}
	q.free, q.live = 0, 0
	q.laneHead, q.laneTail = [laneCount]int32{}, [laneCount]int32{}
	q.laneBits = [laneWords]uint64{}
	q.laneUsed = 0
	q.base, q.scan = 0, 0
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

// schedule files future event i, whose slot is e (its time is strictly
// after the current instant, which guarantees it is at or after scan).
func (q *twoLevelQueue) schedule(i int32, e *event) {
	if e.at < q.windowEnd() {
		q.pushLane(i, e.at)
		return
	}
	q.pushOverflow(farEvent{at: e.at, seq: e.seq, i: i})
}

// pushLane appends event i, due at time at, to its lane's chain.
func (q *twoLevelQueue) pushLane(i int32, at Time) {
	// A limit-bounded run may have advanced scan onto an instant beyond
	// its limit without processing it; an event scheduled afterwards can
	// legally land earlier, so pull scan back to keep its invariant.
	if at < q.scan {
		q.scan = at
	}
	idx := int(at) & laneMask
	if tail := q.laneTail[idx]; tail != 0 {
		q.events[tail].next = i
	} else {
		q.laneHead[idx] = i
		q.laneBits[idx>>6] |= 1 << uint(idx&63)
		q.laneUsed++
	}
	q.laneTail[idx] = i
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
	if q.laneUsed == 0 {
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
// tests regardless of how sparse the window is. Requires laneUsed > 0.
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
	// Unreachable while laneUsed > 0: every lane event is in the window.
	panic("hades: event queue lane accounting corrupted")
}

// popInstant removes the whole chain of events at instant t (which must
// come from peekTime) and returns its head index, in seq order.
func (q *twoLevelQueue) popInstant(t Time) int32 {
	idx := int(t) & laneMask
	head := q.laneHead[idx]
	q.laneHead[idx], q.laneTail[idx] = 0, 0
	q.laneBits[idx>>6] &^= 1 << uint(idx&63)
	q.laneUsed--
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
		f := q.popOverflow()
		q.pushLane(f.i, f.at)
	}
}

// pushOverflow and popOverflow resize q.overflow in place (append to
// it, reslice it) and sift a local copy of it, so the slice header is
// stored without a write barrier unless the heap grows.
func (q *twoLevelQueue) pushOverflow(f farEvent) {
	q.overflow = append(q.overflow, f)
	h := q.overflow
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popOverflow removes the heap's top entry. Heap events never had a
// chain link set (alloc hands out next == 0), so its event is ready to
// append to a lane.
func (q *twoLevelQueue) popOverflow() farEvent {
	h := q.overflow
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.overflow = q.overflow[:n]
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
	return top
}

// heapLess orders the overflow heap by (time, seq).
func heapLess(a, b farEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
