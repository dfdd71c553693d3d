package hades

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// --- property: two-level queue order == seed heap order -----------------
//
// The seed kernel ordered events by (time, delta, insertion) through one
// binary heap. The two-level queue must be observationally identical, so
// we replay randomized schedules — near delays, zero-delay chains, and
// far delays that detour through the overflow heap — on mirrored
// topologies and require the full reaction traces, final values and
// event, delta and instant counts to match exactly.

type traceEntry struct {
	at  Time
	idx int
	val uint64
}

// follow is the shared follow-on rule the kernel and the seed reference
// execute from their reactors; it spawns delta chains, near events
// inside the lane window, and far events beyond it (laneCount=1024 <
// 2000).
func follow(i int, v uint64, n int) (tgt int, val uint64, delay Time, ok bool) {
	switch v % 5 {
	case 0:
		return (i + 1) % n, v + 1, 0, true
	case 1:
		return (i + 2) % n, v + 7, Time(v%13 + 1), true
	case 2:
		return (i + 3) % n, v + 11, Time(2000 + (v%7)*911), true
	}
	return 0, 0, 0, false
}

type mirrorReactor struct {
	IDBase
	fn func()
}

func (m *mirrorReactor) Name() string     { return "mirror" }
func (m *mirrorReactor) React(*Simulator) { m.fn() }

func runMirrored(t *testing.T, seed int64, nsig, nevents, maxVal, maxDelay int) {
	t.Helper()
	sim := NewSimulator()
	ref := newHeapSim()
	sigs := make([]*Signal, nsig)
	refs := make([]*refSignal, nsig)
	var simTrace, refTrace []traceEntry

	for i := 0; i < nsig; i++ {
		sigs[i] = sim.NewSignal(fmt.Sprintf("s%d", i), 32)
		refs[i] = ref.newSignal(32)
	}
	for i := 0; i < nsig; i++ {
		i := i
		mr := &mirrorReactor{fn: func() {
			v := sigs[i].Uint()
			simTrace = append(simTrace, traceEntry{sim.Now(), i, v})
			if tgt, val, d, ok := follow(i, v, nsig); ok {
				sim.SetUint(sigs[tgt], val, d)
			}
		}}
		mr.AssignID(i + 1)
		sigs[i].Listen(mr)

		rr := &refReactor{id: i + 1}
		rr.fn = func() {
			v := refs[i].Uint()
			refTrace = append(refTrace, traceEntry{ref.now, i, v})
			if tgt, val, d, ok := follow(i, v, nsig); ok {
				ref.set(refs[tgt], val, d)
			}
		}
		refs[i].listeners = append(refs[i].listeners, rr)
	}

	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < nevents; k++ {
		i := rng.Intn(nsig)
		v := uint64(rng.Intn(maxVal))
		d := Time(rng.Intn(maxDelay))
		sim.SetUint(sigs[i], v, d)
		ref.set(refs[i], v, d)
	}

	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatalf("seed %d: sim: %v", seed, err)
	}
	if _, err := ref.run(TimeMax); err != nil {
		t.Fatalf("seed %d: ref: %v", seed, err)
	}
	if len(simTrace) != len(refTrace) {
		t.Fatalf("seed %d: trace length %d != reference %d", seed, len(simTrace), len(refTrace))
	}
	for k := range simTrace {
		if simTrace[k] != refTrace[k] {
			t.Fatalf("seed %d: trace[%d] = %+v, reference %+v", seed, k, simTrace[k], refTrace[k])
		}
	}
	st := sim.Stats()
	if st.Events != ref.events || st.Deltas != ref.deltas || st.Instants != ref.instants {
		t.Fatalf("seed %d: events/deltas/instants %d/%d/%d != reference %d/%d/%d", seed,
			st.Events, st.Deltas, st.Instants, ref.events, ref.deltas, ref.instants)
	}
	for i := range sigs {
		if sigs[i].Uint() != refs[i].Uint() || sigs[i].Valid() != refs[i].valid {
			t.Fatalf("seed %d: signal %d = %d/%v, reference %d/%v",
				seed, i, sigs[i].Uint(), sigs[i].Valid(), refs[i].val, refs[i].valid)
		}
	}
}

func TestQueueOrderMatchesHeapProperty(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		runMirrored(t, seed, 8, 40, 1000, 3000)
	}
}

func TestQueueOrderDuplicateTimes(t *testing.T) {
	// Small value/delay ranges force duplicate instants, same-value
	// suppression, and repeated (time, seq) collisions around the
	// lane-window boundary.
	for seed := int64(100); seed < 130; seed++ {
		runMirrored(t, seed, 4, 60, 5, 2600)
	}
}

// --- stop / interrupt ordering ------------------------------------------

func TestStopDuringDeltaCycle(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 32)
	var after []uint64
	r1 := &mirrorReactor{fn: func() {
		v := a.Uint()
		if v < 10 {
			sim.SetUint(a, v+1, 0) // scheduled before the stop request
		}
		if v == 3 {
			sim.RequestStop("saw three")
		}
	}}
	r1.AssignID(1)
	r2 := &mirrorReactor{fn: func() { after = append(after, a.Uint()) }}
	r2.AssignID(2)
	a.Listen(r1)
	a.Listen(r2)

	sim.Set(a, 1, 5)
	end, err := sim.Run(TimeMax)
	if err != nil {
		t.Fatal(err)
	}
	if end != 5 || sim.Now() != 5 {
		t.Fatalf("end=%v now=%v, want 5", end, sim.Now())
	}
	if stopped, why := sim.Stopped(); !stopped || why != "saw three" {
		t.Fatalf("stopped=%v why=%q", stopped, why)
	}
	// r2 has the higher id: it must not observe the delta in which the
	// stop was requested.
	if len(after) != 2 || after[0] != 1 || after[1] != 2 {
		t.Fatalf("post-stop reactor saw %v, want [1 2]", after)
	}
	// The zero-delay event r1 scheduled in the stopping delta stays
	// queued, unapplied.
	if a.Uint() != 3 {
		t.Fatalf("a=%d, want 3 (value of the stopping delta)", a.Uint())
	}
	if n := sim.PendingEvents(); n != 1 {
		t.Fatalf("pending=%d, want the 1 unapplied zero-delay event", n)
	}

	// A stopped simulator must not touch the queue again: resuming is a
	// no-op that leaves events, values and counters untouched.
	ev := sim.Stats().Events
	end, err = sim.Run(TimeMax)
	if err != nil || end != 5 {
		t.Fatalf("resume after stop: end=%v err=%v", end, err)
	}
	if sim.Stats().Events != ev || sim.PendingEvents() != 1 || len(after) != 2 {
		t.Fatal("stopped run must not process events")
	}
}

func TestInterruptPolledPerInstantNotPerEvent(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 32)
	b := sim.NewSignal("b", 32)
	// 20 instants, 3 events each; plus a 30-delta zero-delay chain on
	// the first instant: the poll count must equal the instant count.
	for i := 1; i <= 20; i++ {
		for j := 0; j < 3; j++ {
			sim.SetUint(a, uint64(100*i+j), Time(i*7))
		}
	}
	depth := 0
	r := &mirrorReactor{fn: func() {
		if sim.Now() == 7 && depth < 30 {
			depth++
			sim.SetUint(b, uint64(depth), 0)
		}
	}}
	r.AssignID(1)
	a.Listen(r)
	b.Listen(r)

	polls := 0
	sim.Interrupt = func() bool { polls++; return false }
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.Instants != 20 {
		t.Fatalf("instants=%d want 20", st.Instants)
	}
	if polls != int(st.Instants) {
		t.Fatalf("interrupt polled %d times for %d instants", polls, st.Instants)
	}
}

func TestInterruptStopsBeforeNextInstant(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 32)
	for i := 1; i <= 5; i++ {
		sim.SetUint(a, uint64(i), Time(i*10))
	}
	polls := 0
	sim.Interrupt = func() bool { polls++; return polls > 2 }
	end, err := sim.Run(TimeMax)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err=%v want ErrInterrupted", err)
	}
	if end != 20 || a.Uint() != 2 {
		t.Fatalf("end=%v a=%d; want interruption after the 2nd instant", end, a.Uint())
	}
	if sim.PendingEvents() != 3 {
		t.Fatalf("pending=%d, want 3 future events left queued", sim.PendingEvents())
	}
}

// --- two-level specifics --------------------------------------------------

func TestLazyRebaseAllowsBackfill(t *testing.T) {
	// A limit-bounded run must not rebase the lane window onto a far
	// event it will not process: events scheduled later, between now and
	// that far event, would land behind the window.
	sim := NewSimulator()
	a := sim.NewSignal("a", 32)
	var trace []traceEntry
	r := &mirrorReactor{fn: func() { trace = append(trace, traceEntry{sim.Now(), 0, a.Uint()}) }}
	r.AssignID(1)
	a.Listen(r)

	sim.SetUint(a, 1, 1)
	sim.SetUint(a, 2, 50000) // far beyond the lane window: overflow
	if _, err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	sim.SetUint(a, 3, 100) // backfill: earlier than the far event
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	want := []traceEntry{{1, 0, 1}, {101, 0, 3}, {50000, 0, 2}}
	if len(trace) != len(want) {
		t.Fatalf("trace=%v want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace=%v want %v", trace, want)
		}
	}
}

func TestLimitBoundedRunAllowsEarlierLaneBackfill(t *testing.T) {
	// A Run bounded below a pending in-window event advances the lane
	// scan onto that event's instant without processing it; an event
	// scheduled afterwards at an earlier time must still be delivered
	// in order, at its own time, not aliased behind the scan position.
	sim := NewSimulator()
	a := sim.NewSignal("a", 32)
	var trace []traceEntry
	r := &mirrorReactor{fn: func() { trace = append(trace, traceEntry{sim.Now(), 0, a.Uint()}) }}
	r.AssignID(1)
	a.Listen(r)

	sim.SetUint(a, 1, 1)
	sim.SetUint(a, 2, 500) // in-window, beyond the first run's limit
	if _, err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	sim.SetUint(a, 3, 100) // earlier than the peeked instant: t=101
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	want := []traceEntry{{1, 0, 1}, {101, 0, 3}, {500, 0, 2}}
	if len(trace) != len(want) {
		t.Fatalf("trace=%v want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace=%v want %v", trace, want)
		}
	}
	if a.Uint() != 2 {
		t.Fatalf("a=%d want 2", a.Uint())
	}
}

func TestInterruptedRunAllowsEarlierBackfillBeforeRebase(t *testing.T) {
	// An interrupt fires after the next instant is peeked but before it
	// is processed. When that instant lives in the overflow heap, the
	// window must not have been rebased onto it: an event scheduled
	// after the interrupted Run, earlier than the far instant, would
	// otherwise land behind the window and alias a lane.
	sim := NewSimulator()
	a := sim.NewSignal("a", 32)
	var trace []traceEntry
	r := &mirrorReactor{fn: func() { trace = append(trace, traceEntry{sim.Now(), 0, a.Uint()}) }}
	r.AssignID(1)
	a.Listen(r)

	sim.SetUint(a, 1, 1)
	sim.SetUint(a, 2, 5000) // beyond the lane window: overflow
	polls := 0
	sim.Interrupt = func() bool { polls++; return polls > 1 }
	if _, err := sim.Run(TimeMax); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err=%v want ErrInterrupted", err)
	}
	sim.Interrupt = nil
	sim.SetUint(a, 3, 100) // earlier than the peeked far instant
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	want := []traceEntry{{1, 0, 1}, {101, 0, 3}, {5000, 0, 2}}
	if len(trace) != len(want) {
		t.Fatalf("trace=%v want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace=%v want %v", trace, want)
		}
	}
}

func TestPendingEventsDrainToZero(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	sim.Set(a, 1, 3)
	sim.Set(a, 2, 30000)
	sim.Set(a, 3, 0)
	if got := sim.PendingEvents(); got != 3 {
		t.Fatalf("pending=%d want 3", got)
	}
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if got := sim.PendingEvents(); got != 0 {
		t.Fatalf("pending=%d want 0 after drain", got)
	}
}

// --- free-list win --------------------------------------------------------

func TestKernelSteadyStateAllocs(t *testing.T) {
	sim := NewSimulator()
	// Self-sustaining traffic over every queue path: near rings (lanes),
	// a zero-delay chain (next-delta FIFO), and far timers (overflow).
	for k := 0; k < 8; k++ {
		sig := sim.NewSignal(fmt.Sprintf("ring%d", k), 32)
		p := Time(k%5 + 3)
		sig.Listen(&ReactorFunc{Label: "ring", Fn: func(s *Simulator) {
			s.SetUint(sig, sig.Uint()+1, p)
		}})
		sim.SetUint(sig, 1, Time(k+1))
	}
	da := sim.NewSignal("da", 32)
	db := sim.NewSignal("db", 32)
	da.Listen(&ReactorFunc{Label: "d0", Fn: func(s *Simulator) { s.SetUint(db, da.Uint(), 0) }})
	db.Listen(&ReactorFunc{Label: "d1", Fn: func(s *Simulator) { s.SetUint(da, db.Uint()+1, 9) }})
	sim.SetUint(da, 1, 2)
	far := sim.NewSignal("far", 32)
	far.Listen(&ReactorFunc{Label: "far", Fn: func(s *Simulator) {
		s.SetUint(far, far.Uint()+1, 5000)
	}})
	sim.SetUint(far, 1, 4)

	// Warm up: grows the event slab, the overflow heap backing array,
	// the reactor-order slice and the lazy reactor-id map.
	if _, err := sim.Run(20000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := sim.Run(sim.Now() + 500); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state kernel allocates %v objects per 500-tick window, want 0", avg)
	}
}

// --- pointer-free slab ----------------------------------------------------

// TestEventHoldsNoPointers pins what keeps GC write barriers off the
// event path: an event holds no field the collector must trace, and the
// queue's own fields are pointer-free, apart from the slices that own
// its slab and heap, whose elements are pointer-free too.
func TestEventHoldsNoPointers(t *testing.T) {
	for _, path := range pointerPaths("event", reflect.TypeOf(event{})) {
		t.Errorf("%s can hold a pointer", path)
	}
	q := reflect.TypeOf(twoLevelQueue{})
	for i := 0; i < q.NumField(); i++ {
		f := q.Field(i)
		path, typ := "twoLevelQueue."+f.Name, f.Type
		if typ.Kind() == reflect.Slice {
			path, typ = path+"[]", typ.Elem()
		}
		for _, p := range pointerPaths(path, typ) {
			t.Errorf("%s can hold a pointer", p)
		}
	}
}

// pointerPaths lists the paths within typ whose kind can hold a pointer.
func pointerPaths(path string, typ reflect.Type) []string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface,
		reflect.String, reflect.Func, reflect.Chan, reflect.UnsafePointer:
		return []string{path + " (" + typ.Kind().String() + ")"}
	case reflect.Array:
		return pointerPaths(path+"[]", typ.Elem())
	case reflect.Struct:
		var out []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out = append(out, pointerPaths(path+"."+f.Name, f.Type)...)
		}
		return out
	}
	return nil
}
