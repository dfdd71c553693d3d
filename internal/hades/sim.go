package hades

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Reactor is anything that reacts to signal changes: operators,
// finite-state machines, probes, assertions. React is invoked once per
// delta cycle in which at least one watched signal changed, after all
// signal updates of that delta have been applied.
type Reactor interface {
	Name() string
	React(sim *Simulator)
}

// ReactorFunc adapts a function to the Reactor interface.
type ReactorFunc struct {
	Label string
	Fn    func(sim *Simulator)
}

// Name returns the reactor label.
func (r *ReactorFunc) Name() string { return r.Label }

// React invokes the wrapped function.
func (r *ReactorFunc) React(sim *Simulator) { r.Fn(sim) }

// Stats accumulates kernel counters; the paper's evaluation reports
// simulation wall times, which the benchmarks derive while these counters
// support the ablation experiments.
//
// Events through Instants are per-run counters: Reset rewinds them to
// zero along with simulated time. Elaborations and Resets are lifetime
// counters that survive Reset — together they record how often this
// simulator's fabric was rebuilt versus reset-and-replayed, the
// reconfiguration cost the replay cache amortizes.
type Stats struct {
	Events    uint64 // signal-update events applied
	Deltas    uint64 // delta cycles executed
	Reactions uint64 // reactor invocations
	Instants  uint64 // distinct simulated time points

	Elaborations uint64 // netlist elaborations built on this simulator
	Resets       uint64 // reset-and-replay rounds served
}

// ErrMaxDeltas is returned when a single instant exceeds the delta-cycle
// bound, which indicates combinational feedback in the design under test.
var ErrMaxDeltas = errors.New("hades: delta cycle limit exceeded (combinational loop?)")

// ErrInterrupted is returned by Run when the Interrupt hook asks the
// kernel to stop (per-case timeouts and suite cancellation).
var ErrInterrupted = errors.New("hades: run interrupted")

// Simulator is the event-driven kernel. Create with NewSimulator, build
// signals and reactors, then Run.
//
// Events are held in a two-level queue (see queue.go): future instants
// in time-bucketed lanes backed by an overflow heap, and the zero-delay
// events of the current instant in a plain FIFO, because a delta cycle
// at (T, d) can only ever schedule into (T, d+1). The whole batch of an
// instant or delta is popped in one step with no per-event ordering
// work. Every event lives in the queue's pointer-free slab and names its
// signal by id, so Set accepts only a signal this simulator holds.
type Simulator struct {
	now   Time
	delta int
	seq   uint64
	q     twoLevelQueue

	// nextDelta chains the zero-delay events of the current instant in
	// insertion order, by slab index (0 = empty); they run as one batch
	// at delta s.delta+1.
	nextDeltaHead int32
	nextDeltaTail int32

	signals  []*Signal
	stats    Stats
	stopped  bool
	stopWhy  string
	finalize []func()

	// MaxDeltas bounds delta cycles per instant (default 10000).
	MaxDeltas int

	// Interrupt, when set, is polled once per simulated instant — on the
	// time-advance path, never per event — and when it returns true, Run
	// stops immediately and returns ErrInterrupted. Suite runners use it
	// to enforce per-case timeouts and cancellation without abandoning
	// the goroutine that owns the kernel.
	Interrupt func() bool

	// The reactor slot table. A reactor is resolved once, when it first
	// listens (see slot): its slot caches the reactor, its ordering id
	// and a queued flag, and listener lists hold slots, so the
	// per-event path only indexes these slices. slotOf is the
	// registration map, touched only by Listen and Reset.
	slots  []reactorSlot
	queued []bool // by slot: already in order this delta
	slotOf map[Reactor]int32
	order  []int32 // slots to run this delta

	mark simMark // structural baseline Reset rewinds to (see Mark)
}

// reactorSlot is one entry of the reactor slot table.
type reactorSlot struct {
	r  Reactor
	id int // ordering id, read once at registration
}

// simMark is the structural snapshot taken by Mark: how many signals
// exist, how many listeners each carries, how many reactors hold slots,
// and how many finish callbacks are registered. Reset truncates back to
// these counts, detaching everything attached after the mark (clocks,
// watchdogs, probes, VCD taps) while keeping the wired component graph
// itself.
type simMark struct {
	valid     bool
	signals   int
	listeners []int // per signal, parallel to Simulator.signals
	slots     int
	finalize  int
}

// KernelTwoLevel names the event kernel: the two-level time-bucketed
// queue (queue.go). The flow package lists it as the default backend.
const KernelTwoLevel = "twolevel"

// NewSimulator returns an empty simulator.
func NewSimulator() *Simulator {
	return &Simulator{MaxDeltas: 10000, slotOf: make(map[Reactor]int32)}
}

// MaxWidth is the widest signal the kernel carries: values are held in
// one uint64. Every layer that accepts a width from a description
// (xmlspec validation, compiler.Compile, scenario specs) rejects wider
// ones with an error before elaboration reaches NewSignal.
const MaxWidth = 64

// NewSignal creates and registers a signal of the given width
// (1..MaxWidth), owned by this simulator.
func (s *Simulator) NewSignal(name string, width int) *Signal {
	if width <= 0 || width > MaxWidth {
		panic(fmt.Sprintf("hades: signal %q has invalid width %d", name, width))
	}
	sig := &Signal{name: name, width: width, mask: Mask(^uint64(0), width), id: len(s.signals), sim: s}
	s.signals = append(s.signals, sig)
	return sig
}

// Signals returns all registered signals in creation order.
func (s *Simulator) Signals() []*Signal { return s.signals }

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Stats returns a copy of the kernel counters.
func (s *Simulator) Stats() Stats { return s.stats }

// NoteElaboration counts one netlist elaboration built on this
// simulator (a lifetime counter; see Stats).
func (s *Simulator) NoteElaboration() { s.stats.Elaborations++ }

// Mark snapshots the simulator's structure — registered signals, their
// listener counts, the reactor slot table's length, and finish
// callbacks — as the baseline Reset rewinds to. The elaboration layer
// calls it once the component graph is wired, so anything attached
// afterwards (clocks, watchdogs, probes, VCD taps) is detached again by
// Reset while the graph itself survives. A later Mark replaces the
// earlier one.
func (s *Simulator) Mark() {
	s.mark.valid = true
	s.mark.signals = len(s.signals)
	s.mark.listeners = s.mark.listeners[:0]
	for _, sig := range s.signals {
		s.mark.listeners = append(s.mark.listeners, len(sig.listeners))
	}
	s.mark.slots = len(s.slots)
	s.mark.finalize = len(s.finalize)
}

// Reset rewinds the simulator so the same wired design can be run again
// without rebuilding: every pending event (both queue levels and the
// delta FIFO) is dropped from the event slab, simulated time, the event
// sequence counter and the per-run Stats counters rewind to zero, any
// requested stop is cleared, and every signal becomes undefined again
// (the power-on X state). When a Mark was taken, signals created and
// listeners/finish callbacks attached after it are removed, and the
// reactor slot table is truncated to its marked length: reactors first
// registered after the mark lose their slots, so re-arming a clock or
// watchdog every round reuses the same slots instead of growing the
// table.
//
// Reset touches only kernel state. Re-establishing the design's
// power-on drives (constants, register reset values, FSM outputs) is
// the elaboration layer's job — see netlist.Elaboration.Reset, which
// wraps this and replays the elaboration-time initialisation.
func (s *Simulator) Reset() {
	s.nextDeltaHead, s.nextDeltaTail = 0, 0
	s.q.reset()
	s.now, s.delta, s.seq = 0, 0, 0
	s.stopped, s.stopWhy = false, ""
	s.dequeue(s.order)
	if s.mark.valid {
		for _, sig := range s.signals[s.mark.signals:] {
			sig.listeners = nil
		}
		s.signals = s.signals[:s.mark.signals]
		for i, sig := range s.signals {
			sig.listeners = sig.listeners[:s.mark.listeners[i]]
		}
		n := s.mark.slots
		for _, sl := range s.slots[n:] {
			delete(s.slotOf, sl.r)
		}
		clear(s.slots[n:])
		s.slots, s.queued = s.slots[:n], s.queued[:n]
		s.finalize = s.finalize[:s.mark.finalize]
	}
	for _, sig := range s.signals {
		sig.val, sig.valid, sig.lastChange = 0, false, 0
	}
	s.stats = Stats{Elaborations: s.stats.Elaborations, Resets: s.stats.Resets + 1}
}

// PendingEvents reports the number of scheduled-but-unapplied events.
func (s *Simulator) PendingEvents() int { return s.q.live }

// Set schedules sig to take value val after delay ticks. A zero delay
// schedules for the next delta cycle of the current instant, preserving
// the evaluate/update separation of an HDL simulator. Set panics on a
// negative delay and on a signal this simulator does not hold: one of
// another simulator, or one created after Mark and detached by Reset.
func (s *Simulator) Set(sig *Signal, val int64, delay Time) {
	s.set(sig, uint64(val), delay)
}

// SetUint is Set for raw unsigned values.
func (s *Simulator) SetUint(sig *Signal, val uint64, delay Time) {
	s.set(sig, val, delay)
}

func (s *Simulator) set(sig *Signal, val uint64, delay Time) {
	if delay < 0 {
		panic("hades: negative delay")
	}
	// An event names its signal by id, so a signal this simulator does
	// not hold would alias whichever signal has that id here.
	if sig.id >= len(s.signals) || s.signals[sig.id] != sig {
		panic(fmt.Sprintf("hades: signal %q is not held by this simulator", sig.name))
	}
	s.seq++
	i, e := s.q.alloc() // e is filled before anything else allocates
	e.at = s.now + delay
	e.seq = s.seq
	e.sig = int32(sig.id)
	e.val = val & sig.mask
	if delay == 0 {
		// Same instant, next delta: a plain FIFO, because every event
		// appended here belongs to delta s.delta+1 and seq is monotonic.
		if s.nextDeltaTail != 0 {
			s.q.events[s.nextDeltaTail].next = i
		} else {
			s.nextDeltaHead = i
		}
		s.nextDeltaTail = i
		return
	}
	s.q.schedule(i, e)
}

// Drive immediately forces a signal value without an event; intended for
// initialisation before Run (e.g. loading reset states).
func (s *Simulator) Drive(sig *Signal, val int64) {
	sig.val = uint64(val) & sig.mask
	sig.valid = true
}

// RequestStop asks the run loop to stop after the current delta; the
// paper lists explicit stop mechanisms among the requirements testing by
// implementation cannot offer.
func (s *Simulator) RequestStop(why string) {
	s.stopped = true
	s.stopWhy = why
}

// Stopped reports whether a stop was requested and why.
func (s *Simulator) Stopped() (bool, string) { return s.stopped, s.stopWhy }

// OnFinish registers a callback invoked when Run returns (e.g. VCD flush).
func (s *Simulator) OnFinish(fn func()) { s.finalize = append(s.finalize, fn) }

// Run processes events until the queue drains, until time exceeds limit,
// or until a stop is requested. It returns the time of the last processed
// instant.
//
// The stop flag is re-checked at the top of every batch, before any
// queue state is read: a reactor that calls RequestStop mid delta cycle
// ends the run with the remaining same-instant events still queued and
// no further reactors invoked.
func (s *Simulator) Run(limit Time) (Time, error) {
	defer func() {
		for _, fn := range s.finalize {
			fn()
		}
	}()
	for !s.stopped {
		// Current instant first: drain the delta chain before time moves.
		if s.nextDeltaHead != 0 {
			if s.now > limit {
				return s.now, nil
			}
			d := s.delta + 1
			if d > s.MaxDeltas {
				return s.now, fmt.Errorf("%w at t=%s", ErrMaxDeltas, s.now)
			}
			head := s.nextDeltaHead
			s.nextDeltaHead, s.nextDeltaTail = 0, 0
			s.delta = d
			s.runBatch(head)
			continue
		}
		at, fromOverflow, ok := s.q.peekTime(limit)
		if !ok {
			return s.now, nil // drained, or next instant beyond limit
		}
		// Per-instant path: poll cancellation once per time advance,
		// before the queue commits any window movement to the instant.
		if s.Interrupt != nil && s.Interrupt() {
			return s.now, ErrInterrupted
		}
		s.q.commitTime(at, fromOverflow)
		s.stats.Instants++
		s.now, s.delta = at, 0
		s.runBatch(s.q.popInstant(at))
	}
	return s.now, nil
}

// runBatch applies one (time, delta) batch of signal updates, the
// chain starting at slab index head, and then evaluates the affected
// reactors deterministically.
func (s *Simulator) runBatch(head int32) {
	s.stats.Deltas++

	// Phase 1: apply all signal updates of this (time, delta), queueing
	// each listening reactor's slot once, then hand the whole chain back
	// to the free list. It schedules nothing, so the slab cannot move.
	events, signals := s.q.events, s.signals
	tail, n := head, 0
	for i := head; i != 0; i = events[i].next {
		tail, n = i, n+1
		e := &events[i]
		sig := signals[e.sig]
		changed := !sig.valid || sig.val != e.val
		sig.val = e.val
		sig.valid = true
		if changed {
			sig.lastChange = s.now
			for _, slot := range sig.listeners {
				if !s.queued[slot] {
					s.queued[slot] = true
					s.order = append(s.order, slot)
				}
			}
		}
	}
	s.q.release(head, tail, n)
	s.stats.Events += uint64(n)

	// Phase 2: evaluate affected reactors deterministically.
	s.sortOrder()
	for i, slot := range s.order {
		s.queued[slot] = false
		s.stats.Reactions++
		s.slots[slot].r.React(s)
		if s.stopped {
			s.dequeue(s.order[i+1:])
			break
		}
	}
	s.order = s.order[:0]
}

// dequeue clears the queued flags of slots that will not run this delta
// (after a mid-batch stop, or on Reset) and empties the order.
func (s *Simulator) dequeue(slots []int32) {
	for _, slot := range slots {
		s.queued[slot] = false
	}
	s.order = s.order[:0]
}

// sortOrder sorts the queued slots by their cached ordering ids.
// Batches are small and listeners mostly fire in creation order
// already, so an insertion sort beats sort.Slice here and — unlike
// sort.Slice — does not allocate, keeping the steady-state event path
// allocation-free.
func (s *Simulator) sortOrder() {
	order, slots := s.order, s.slots
	for i := 1; i < len(order); i++ {
		slot := order[i]
		id := slots[slot].id
		j := i - 1
		for j >= 0 && slots[order[j]].id > id {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = slot
	}
}

// identified is implemented by reactors that carry a stable ordering id.
type identified interface{ ReactorID() int }

// slot returns r's index in the reactor slot table, registering it on
// first use. The ordering id is read here, once: the reactor's own
// ReactorID, or 1<<30 plus its registration order for a reactor without
// one, so reactors without an id run after every component and, among
// themselves, in the order they first listened.
func (s *Simulator) slot(r Reactor) int32 {
	if slot, ok := s.slotOf[r]; ok {
		return slot
	}
	slot := int32(len(s.slots))
	id := 1<<30 + int(slot)
	if c, ok := r.(identified); ok {
		id = c.ReactorID()
	}
	s.slots = append(s.slots, reactorSlot{r: r, id: id})
	s.queued = append(s.queued, false)
	s.slotOf[r] = slot
	return slot
}

// IDBase hands out stable reactor ids; embed in components.
type IDBase struct{ id int }

// AssignID gives the component its ordering id (done by NewComponent).
func (b *IDBase) AssignID(id int) { b.id = id }

// ReactorID returns the stable ordering id.
func (b *IDBase) ReactorID() int { return b.id }

var globalID atomic.Int64

// NextID returns a fresh monotonically increasing reactor id. It is safe
// for concurrent use: independent simulators are routinely built in
// parallel by the suite runner, and ids only order reactors within one
// simulator, so cross-simulator gaps are harmless.
func NextID() int {
	return int(globalID.Add(1))
}
