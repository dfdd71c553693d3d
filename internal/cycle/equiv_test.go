package cycle_test

import (
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/hades"
	"repro/internal/lang"
	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/workloads"
	"repro/internal/xmlspec"
)

// equivParams shrinks each family so the full cross-engine trace matrix
// stays fast; every one of the 7 registered families is covered.
var equivParams = map[string]workloads.Values{
	"erasure": {"k": 4, "stripes": 8},
	"fdct1":   {"pixels": 128},
	"fdct2":   {"pixels": 128},
	"fir":     {"n": 64, "taps": 4},
	"hamming": {"words": 16},
	"matmul":  {"n": 6},
	"newton":  {"n": 32, "iters": 8},
}

const equivMaxCycles = 2_000_000

// visit is one configuration execution, engine-agnostic: the run
// summary, the sink recordings, and the per-clock-edge trace keyed by
// signal name.
type visit struct {
	id         string
	cycles     uint64
	endTime    hades.Time
	completed  bool
	finalState string
	sinks      map[string][]int64
	keys       []string
	rows       [][]netlist.EdgeSample
}

// compileDesign materializes one workload case into its design bundle.
func compileDesign(t *testing.T, cs *workloads.Case) *xmlspec.Design {
	t.Helper()
	prog, err := lang.Parse(cs.Source)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := compiler.Compile(prog, cs.Func, compiler.Config{
		ArraySizes: cs.ArraySizes,
		ScalarArgs: cs.ScalarArgs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return comp.Design
}

// newStore seeds the shared-memory store from the case inputs, the same
// images the flow loads before a walk.
func newStore(cs *workloads.Case) map[string][]int64 {
	store := map[string][]int64{}
	for name, depth := range cs.ArraySizes {
		words := make([]int64, depth)
		copy(words, cs.Inputs[name])
		store[name] = words
	}
	return store
}

// configSeeds mirrors rtg's per-configuration InitData: every operator
// bound to a shared memory is seeded from the store (copied).
func configSeeds(dp *xmlspec.Datapath, store map[string][]int64) map[string][]int64 {
	init := map[string][]int64{}
	for i := range dp.Operators {
		op := &dp.Operators[i]
		if op.Ref != "" {
			init[op.ID] = append([]int64(nil), store[op.Ref]...)
		}
	}
	return init
}

// walkEvent executes the design's RTG on a fresh event kernel per
// configuration, tracing every rising clock edge.
func walkEvent(t *testing.T, design *xmlspec.Design, store map[string][]int64, period hades.Time) []visit {
	t.Helper()
	var visits []visit
	for cur := design.RTG.Start; cur != ""; {
		cfg, ok := design.RTG.FindConfiguration(cur)
		if !ok {
			t.Fatalf("unknown configuration %q", cur)
		}
		dp := design.Datapaths[cfg.Datapath]
		fsm := design.FSMs[cfg.FSM]
		plan, err := netlist.Resolve(dp, fsm)
		if err != nil {
			t.Fatal(err)
		}
		sim := hades.NewSimulator()
		clk := sim.NewSignal(cfg.ID+".clk", 1)
		el, err := netlist.Elaborate(sim, clk, plan, configSeeds(dp, store))
		if err != nil {
			t.Fatal(err)
		}
		tr := el.AttachEdgeTrace()
		rr, err := el.RunToCompletion(period, equivMaxCycles)
		if err != nil {
			t.Fatal(err)
		}
		v := visit{
			id: cfg.ID, cycles: rr.Cycles, endTime: rr.EndTime,
			completed: rr.Completed, finalState: rr.FinalState,
			sinks: map[string][]int64{}, keys: tr.Keys(), rows: tr.Rows(),
		}
		for i, comp := range el.Components() {
			op := plan.Ops()[i]
			switch x := comp.(type) {
			case *operators.RAM:
				if op.Ref != "" {
					x.CopyContents(store[op.Ref])
				}
			case *operators.Sink:
				v.sinks[op.ID] = append([]int64(nil), x.Recorded()...)
			}
		}
		visits = append(visits, v)
		if !rr.Completed {
			break
		}
		cur = design.RTG.Successor(cur)
	}
	return visits
}

// walkCycle executes the same RTG on the compiled cycle engine, tracing
// every slot each clock edge.
func walkCycle(t *testing.T, design *xmlspec.Design, store map[string][]int64, period hades.Time) []visit {
	t.Helper()
	var visits []visit
	for cur := design.RTG.Start; cur != ""; {
		cfg, ok := design.RTG.FindConfiguration(cur)
		if !ok {
			t.Fatalf("unknown configuration %q", cur)
		}
		dp := design.Datapaths[cfg.Datapath]
		prog, err := compile(t, dp, design.FSMs[cfg.FSM])
		if err != nil {
			t.Fatal(err)
		}
		inst := prog.NewInstance(1)
		inst.EnableTrace()
		inst.Reset(0, configSeeds(dp, store))
		if err := inst.Run(period, equivMaxCycles, nil); err != nil {
			t.Fatal(err)
		}
		for i := range dp.Operators {
			if ref := dp.Operators[i].Ref; ref != "" {
				inst.CopyShared(0, ref, store[ref])
			}
		}
		lr := inst.Result(0)
		v := visit{
			id: cfg.ID, cycles: lr.Cycles, endTime: lr.EndTime,
			completed: lr.Completed, finalState: lr.FinalState,
			sinks: map[string][]int64{}, keys: prog.SlotNames(),
		}
		for id, rec := range inst.Sinks(0) {
			v.sinks[id] = append([]int64(nil), rec...)
		}
		for _, row := range inst.TraceRows(0) {
			er := make([]netlist.EdgeSample, len(row))
			for i, s := range row {
				er[i] = netlist.EdgeSample{Val: s.Val, Valid: s.Valid}
			}
			v.rows = append(v.rows, er)
		}
		visits = append(visits, v)
		if !lr.Completed {
			break
		}
		cur = design.RTG.Successor(cur)
	}
	return visits
}

// compareWalks asserts the cross-engine contract: same configuration
// sequence, same run summaries, same sink recordings, and — signal by
// signal, clock edge by clock edge — identical pre-edge values on every
// wire and control line the event elaboration names.
func compareWalks(t *testing.T, ev, cy []visit) {
	t.Helper()
	if len(ev) != len(cy) {
		t.Fatalf("visit counts diverge: event %d, cycle %d", len(ev), len(cy))
	}
	for i := range ev {
		e, c := ev[i], cy[i]
		if e.id != c.id {
			t.Fatalf("visit %d: config %q vs %q", i, e.id, c.id)
		}
		if e.cycles != c.cycles || e.endTime != c.endTime || e.completed != c.completed || e.finalState != c.finalState {
			t.Fatalf("%s: run summary diverges:\nevent (cycles=%d end=%d completed=%v state=%q)\ncycle (cycles=%d end=%d completed=%v state=%q)",
				e.id, e.cycles, e.endTime, e.completed, e.finalState,
				c.cycles, c.endTime, c.completed, c.finalState)
		}
		if len(e.sinks) != len(c.sinks) {
			t.Fatalf("%s: sink sets diverge: %v vs %v", e.id, e.sinks, c.sinks)
		}
		for id, rec := range e.sinks {
			if fmt.Sprint(rec) != fmt.Sprint(c.sinks[id]) {
				t.Fatalf("%s: sink %q diverges:\nevent %v\ncycle %v", e.id, id, rec, c.sinks[id])
			}
		}
		slot := map[string]int{}
		for idx, name := range c.keys {
			slot[name] = idx
		}
		if len(e.rows) != len(c.rows) {
			t.Fatalf("%s: trace lengths diverge: event %d rows, cycle %d rows", e.id, len(e.rows), len(c.rows))
		}
		for ki, key := range e.keys {
			si, ok := slot[key]
			if !ok {
				t.Fatalf("%s: event signal %q has no compiled slot", e.id, key)
			}
			for row := range e.rows {
				es, cs := e.rows[row][ki], c.rows[row][si]
				if es.Valid != cs.Valid || (es.Valid && es.Val != cs.Val) {
					t.Fatalf("%s: edge %d signal %q diverges: event (val=%d valid=%v), cycle (val=%d valid=%v)",
						e.id, row+1, key, es.Val, es.Valid, cs.Val, cs.Valid)
				}
			}
		}
	}
}

// TestClockEdgeTraceEquivalence is the cross-kernel property test of the
// compiled engine: for every registered workload family, the event
// kernel and the cycle engine must agree on every wire and control line
// at every rising clock edge of every configuration — plus run
// summaries, sink recordings, and the final shared-memory images.
func TestClockEdgeTraceEquivalence(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			cs, err := workloads.Build(name, equivParams[name])
			if err != nil {
				t.Fatal(err)
			}
			design := compileDesign(t, cs)
			evStore, cyStore := newStore(cs), newStore(cs)
			ev := walkEvent(t, design, evStore, 10)
			cy := walkCycle(t, design, cyStore, 10)
			compareWalks(t, ev, cy)
			for id, want := range evStore {
				if fmt.Sprint(want) != fmt.Sprint(cyStore[id]) {
					t.Fatalf("shared memory %q diverges:\nevent %v\ncycle %v", id, want, cyStore[id])
				}
			}
		})
	}
}

// TestOddPeriodEquivalence pins the clock arithmetic for periods whose
// half is rounded: edge times, cycle counts and cap end-times must match
// the event kernel's hades.Clock for odd periods too.
func TestOddPeriodEquivalence(t *testing.T) {
	for _, period := range []hades.Time{3, 7, 11} {
		period := period
		t.Run(fmt.Sprintf("period%d", period), func(t *testing.T) {
			cs, err := workloads.Build("hamming", workloads.Values{"words": 8})
			if err != nil {
				t.Fatal(err)
			}
			design := compileDesign(t, cs)
			evStore, cyStore := newStore(cs), newStore(cs)
			compareWalks(t,
				walkEvent(t, design, evStore, period),
				walkCycle(t, design, cyStore, period))
		})
	}
}
