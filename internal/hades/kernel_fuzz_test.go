package hades

import (
	"errors"
	"slices"
	"testing"
)

// FuzzKernelMatchesSeedReference replays fuzzed many-to-many listener
// graphs on the production kernel and on the seed reference model
// (heapref_test.go) and requires the same reaction trace and the same
// Events, Deltas and Reactions counts. The bytes pick signal widths
// (narrow ones force same-value suppression), reactors with shuffled
// ids or with none, one to three watched signals per reactor (repeats
// included, so a reactor can be queued twice in one delta), a shuffled
// listen order, a delta bound, a reaction budget that ends the run with
// RequestStop, and a schedule of zero, near and far delays. When the
// graph has post-mark listens, the simulator is Reset and re-listened
// in reverse order for a second round, which must match a fresh
// reference built the same way. The seed corpus lives in
// testdata/fuzz/.
func FuzzKernelMatchesSeedReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeFuzzGraph(data)
		sim := NewSimulator()
		sim.MaxDeltas = g.maxDeltas
		sigs := make([]*Signal, len(g.widths))
		for i, w := range g.widths {
			sigs[i] = sim.NewSignal("s", w)
		}
		var trace []traceEntry
		reactions := 0
		reactors := make([]Reactor, len(g.ids))
		for k := range g.ids {
			k := k
			fn := func(s *Simulator) {
				v := g.watched(k, func(i int) uint64 { return sigs[i].Uint() })
				trace = append(trace, traceEntry{s.Now(), k, v})
				if tgt, val, d, ok := g.follow(k, v); ok {
					s.SetUint(sigs[tgt], val, d)
				}
				if reactions++; reactions == g.budget {
					s.RequestStop("budget")
				}
			}
			if g.ids[k] == 0 {
				reactors[k] = &ReactorFunc{Label: "anon", Fn: fn}
			} else {
				mr := &mirrorReactor{fn: func() { fn(sim) }}
				mr.AssignID(g.ids[k])
				reactors[k] = mr
			}
		}
		listen := func(pairs []listenPair) {
			for _, p := range pairs {
				sigs[p.sig].Listen(reactors[p.r])
			}
		}

		listen(g.pre)
		sim.Mark()
		post := g.post
		for round := 0; round < 2; round++ {
			if round == 1 {
				if len(g.post) == 0 {
					break
				}
				sim.Reset()
				post = slices.Clone(g.post)
				slices.Reverse(post)
			}
			listen(post)
			trace, reactions = trace[:0], 0
			for _, ev := range g.schedule {
				sim.SetUint(sigs[ev.sig], ev.val, ev.delay)
			}
			_, err := sim.Run(TimeMax)

			ref := g.reference(post)
			_, refErr := ref.sim.run(TimeMax)
			if errors.Is(err, ErrMaxDeltas) != errors.Is(refErr, ErrMaxDeltas) || (err == nil) != (refErr == nil) {
				t.Fatalf("round %d: err %v, reference %v", round, err, refErr)
			}
			if len(trace) != len(*ref.trace) {
				t.Fatalf("round %d: %d reactions, reference %d", round, len(trace), len(*ref.trace))
			}
			for i := range trace {
				if trace[i] != (*ref.trace)[i] {
					t.Fatalf("round %d: reaction %d = %+v, reference %+v", round, i, trace[i], (*ref.trace)[i])
				}
			}
			st := sim.Stats()
			if st.Events != ref.sim.events || st.Deltas != ref.sim.deltas || st.Reactions != uint64(len(*ref.trace)) {
				t.Fatalf("round %d: events/deltas/reactions %d/%d/%d, reference %d/%d/%d", round,
					st.Events, st.Deltas, st.Reactions, ref.sim.events, ref.sim.deltas, len(*ref.trace))
			}
		}
	})
}

// fuzzGraph is one decoded fuzz input: a listener graph, its listen
// order before and after the Mark, and the initial schedule.
type fuzzGraph struct {
	widths    []int
	ids       []int   // per reactor; 0 means no ReactorID
	watch     [][]int // per reactor, the signals it reads (repeats allowed)
	pre, post []listenPair
	schedule  []fuzzEvent
	maxDeltas int
	budget    int
}

type listenPair struct{ r, sig int }

type fuzzEvent struct {
	sig   int
	val   uint64
	delay Time
}

// fuzzBytes hands out input bytes, then zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func decodeFuzzGraph(data []byte) *fuzzGraph {
	b := fuzzBytes(data)
	g := &fuzzGraph{maxDeltas: 1 + b.next()%64, budget: 1 + b.next()*8}
	nsig, nreact := 1+b.next()%8, 1+b.next()%10
	for i := 0; i < nsig; i++ {
		g.widths = append(g.widths, 1+b.next()%8)
	}
	// Distinct ids 1..nreact in a fuzzed order; about a third of the
	// reactors carry none and take the kernel's registration-order id.
	perm := make([]int, nreact)
	for i := range perm {
		perm[i] = i + 1
	}
	for i := nreact - 1; i > 0; i-- {
		j := b.next() % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var pairs []listenPair
	for k := 0; k < nreact; k++ {
		id := perm[k]
		if b.next()%3 == 0 {
			id = 0
		}
		g.ids = append(g.ids, id)
		var w []int
		for n := 1 + b.next()%3; n > 0; n-- {
			w = append(w, b.next()%nsig)
		}
		g.watch = append(g.watch, w)
		for _, s := range w {
			pairs = append(pairs, listenPair{k, s})
		}
	}
	for i := len(pairs) - 1; i > 0; i-- {
		j := b.next() % (i + 1)
		pairs[i], pairs[j] = pairs[j], pairs[i]
	}
	// The Mark falls somewhere in the listen order: pairs after it are
	// detached by Reset and re-listened for the second round.
	cut := len(pairs) - b.next()%(len(pairs)+1)
	g.pre, g.post = pairs[:cut], pairs[cut:]
	for n := 1 + b.next()%24; n > 0; n-- {
		ev := fuzzEvent{sig: b.next() % nsig, val: uint64(b.next())}
		switch d := b.next(); d % 3 {
		case 1:
			ev.delay = Time(1 + d%50)
		case 2:
			ev.delay = Time(2000 + d*37)
		}
		g.schedule = append(g.schedule, ev)
	}
	return g
}

// watched folds reactor k's watched signal values into one word.
func (g *fuzzGraph) watched(k int, val func(int) uint64) uint64 {
	var v uint64
	for i, s := range g.watch[k] {
		v ^= val(s) << uint(i*3)
	}
	return v
}

// follow is the follow-on event reactor k schedules after seeing v:
// zero, near or far delays, or nothing.
func (g *fuzzGraph) follow(k int, v uint64) (tgt int, val uint64, delay Time, ok bool) {
	tgt, val = (k+int(v))%len(g.widths), v+uint64(k)+1
	switch v % 4 {
	case 0:
		return tgt, val, 0, true
	case 1:
		return tgt, val, Time(v%13 + 1), true
	case 2:
		return tgt, val, Time(2000 + (v%7)*911), true
	}
	return 0, 0, 0, false
}

type fuzzReference struct {
	sim   *heapSim
	trace *[]traceEntry
}

// reference builds the seed model of one round: the pre-mark listens
// plus this round's post-mark ones, scheduled identically. Reactors
// without an id get the kernel's documented ordering id, 1<<30 plus
// their registration order: pre-mark reactors keep the slots of their
// first listen, and post-mark ones take the slots after them in the
// order they first listen this round.
func (g *fuzzGraph) reference(post []listenPair) fuzzReference {
	hs := newHeapSim()
	hs.maxDeltas = g.maxDeltas
	refs := make([]*refSignal, len(g.widths))
	for i, w := range g.widths {
		refs[i] = hs.newSignal(w)
	}
	trace := &[]traceEntry{}
	reactions := 0
	slot := map[int]int{}
	rr := make([]*refReactor, len(g.ids))
	for _, p := range slices.Concat(g.pre, post) {
		k := p.r
		if rr[k] == nil {
			slot[k] = len(slot)
			id := g.ids[k]
			if id == 0 {
				id = 1<<30 + slot[k]
			}
			rr[k] = &refReactor{id: id, fn: func() {
				v := g.watched(k, func(i int) uint64 { return refs[i].Uint() })
				*trace = append(*trace, traceEntry{hs.now, k, v})
				if tgt, val, d, ok := g.follow(k, v); ok {
					hs.set(refs[tgt], val, d)
				}
				if reactions++; reactions == g.budget {
					hs.stopped = true
				}
			}}
		}
		refs[p.sig].listeners = append(refs[p.sig].listeners, rr[k])
	}
	for _, ev := range g.schedule {
		hs.set(refs[ev.sig], ev.val, ev.delay)
	}
	return fuzzReference{sim: hs, trace: trace}
}

// TestPostMarkReactorFiresOncePerChange pins the slot table across
// replay rounds: a reactor attached after the Mark and re-listened on
// two signals after every Reset fires exactly once per delta in which
// either signal changes, and the table does not grow: Reset drops the
// post-mark slots, so neither the re-listened reactor nor a fresh
// probe per round adds one.
func TestPostMarkReactorFiresOncePerChange(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	b := sim.NewSignal("b", 8)
	a.Listen(&ReactorFunc{Label: "pre", Fn: func(*Simulator) {}})
	sim.Mark()
	fired := 0
	post := &ReactorFunc{Label: "post", Fn: func(*Simulator) { fired++ }}
	for round := 0; round < 4; round++ {
		if round > 0 {
			sim.Reset()
		}
		a.Listen(post)
		b.Listen(post)
		NewProbe(b, 0)
		if len(sim.slots) != 3 || len(sim.slotOf) != 3 {
			t.Fatalf("round %d: %d slots, %d registrations; want 3 and 3",
				round, len(sim.slots), len(sim.slotOf))
		}
		fired = 0
		sim.Set(a, 1, 1)
		sim.Set(b, 1, 1) // same delta as a: one reaction
		sim.Set(a, 1, 2) // no change: none
		sim.Set(b, 2, 3) // one
		if _, err := sim.Run(TimeMax); err != nil {
			t.Fatal(err)
		}
		if fired != 2 {
			t.Fatalf("round %d: post-mark reactor fired %d times, want 2", round, fired)
		}
	}
}

// TestReactorsWithoutIDRunInRegistrationOrder pins the ordering rule
// for reactors without a ReactorID: they run after every component,
// and among themselves in the order they first listened.
func TestReactorsWithoutIDRunInRegistrationOrder(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	var order []string
	anon := func(label string) *ReactorFunc {
		return &ReactorFunc{Label: label, Fn: func(*Simulator) { order = append(order, label) }}
	}
	comp := &orderedReactor{label: "component", out: &order}
	comp.AssignID(1 << 29)
	a.Listen(anon("first"))
	a.Listen(anon("second"))
	a.Listen(comp)
	sim.Set(a, 1, 1)
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "component" || order[1] != "first" || order[2] != "second" {
		t.Fatalf("order=%v, want [component first second]", order)
	}
}
