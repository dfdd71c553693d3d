package xmlspec_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cycle"
	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// Each design both engines build runs this many rising edges at this
// period, unless its memories hold more than fuzzMaxWords words.
const (
	fuzzEdges    = 12
	fuzzPeriod   = 10
	fuzzMaxWords = 4096
)

// FuzzPlanBuildsOnBothEngines runs FuzzValidateDatapath's corpus through
// the plan: a datapath the validator accepts is bound to an FSM that
// steps every control through 0, 1, 0, 1 and then stops in a final
// state, resolved, and built on both engines. Each build returns an
// error or a result, never panics, and the engines accept or reject
// together — save a combinational loop, which only the cycle compiler
// rejects at build time (the event kernel meets it when it runs). When
// both build, each runs fuzzEdges edges, and they must agree on the
// run summary and on every plan slot at every edge, so the compiled
// engine's dirty sweep meets graphs beyond the workload families.
// testdata/fuzz/ holds the same two oversized seeds as
// FuzzValidateDatapath's; ram and rom depths above operators.MaxDepth
// fail resolution before any memory is allocated.
func FuzzPlanBuildsOnBothEngines(f *testing.F) {
	addDatapathSeeds(f)
	reg := operators.DefaultRegistry()
	f.Fuzz(func(t *testing.T, doc []byte) {
		dp, err := xmlspec.ParseDatapath(doc)
		if err != nil || xmlspec.ValidateDatapath(dp, reg) != nil {
			return
		}
		fsm := stepFSM(dp)
		if err := xmlspec.ValidateFSM(fsm); err != nil {
			t.Fatalf("the binding FSM of a valid datapath must validate: %v", err)
		}
		plan, err := netlist.Resolve(dp, fsm)
		if err != nil {
			return
		}
		sim := hades.NewSimulator()
		el, evErr := netlist.Elaborate(sim, sim.NewSignal("clk", 1), plan, nil)
		prog, cyErr := cycle.Compile(plan)
		loop := errors.Is(cyErr, cycle.ErrCombinationalLoop)
		if (evErr == nil) != (cyErr == nil) && !(evErr == nil && loop) {
			t.Fatalf("engines disagree on a resolved plan: event %v, cycle %v", evErr, cyErr)
		}
		if evErr != nil || cyErr != nil || memoryWords(plan) > fuzzMaxWords {
			return
		}
		runBothEngines(t, el, prog)
	})
}

// stepFSM declares the datapath's controls as outputs and drives each
// through 0, 1, 0, 1 on unconditional transitions, then stops in a
// final state that drives 0.
func stepFSM(dp *xmlspec.Datapath) *xmlspec.FSM {
	fsm := &xmlspec.FSM{Name: "bind"}
	var ones []xmlspec.Assign
	for _, c := range dp.Controls {
		fsm.Outputs = append(fsm.Outputs, xmlspec.FSMSignal{Name: c.Name, Width: c.Width})
		ones = append(ones, xmlspec.Assign{Signal: c.Name, Value: 1})
	}
	for i := 0; i < 4; i++ {
		st := xmlspec.State{Name: fmt.Sprintf("s%d", i), Initial: i == 0,
			Transitions: []xmlspec.Transition{{Next: fmt.Sprintf("s%d", i+1)}}}
		if i%2 == 1 {
			st.Assigns = ones
		}
		fsm.States = append(fsm.States, st)
	}
	fsm.States = append(fsm.States, xmlspec.State{Name: "s4", Final: true})
	return fsm
}

// memoryWords is the number of words the plan's RAMs and ROMs hold.
func memoryWords(plan *netlist.Plan) int {
	words := 0
	for _, op := range plan.Ops() {
		if k := op.Spec.Kind; k == operators.KindRAM || k == operators.KindROM {
			words += op.Params.Depth
		}
	}
	return words
}

// runBothEngines runs the elaboration and the program from their XML
// contents and compares cycles, completion, final state and every plan
// slot at every edge.
func runBothEngines(t *testing.T, el *netlist.Elaboration, prog *cycle.Program) {
	t.Helper()
	tr := el.AttachEdgeTrace()
	ev, err := el.RunToCompletion(fuzzPeriod, fuzzEdges)
	if err != nil {
		t.Fatalf("event run: %v", err)
	}
	inst := prog.NewInstance(1)
	inst.EnableTrace()
	inst.Reset(0, nil)
	if err := inst.Run(fuzzPeriod, fuzzEdges, nil); err != nil {
		t.Fatalf("cycle run: %v", err)
	}
	cy := inst.Result(0)
	if ev.Cycles != cy.Cycles || ev.Completed != cy.Completed || ev.FinalState != cy.FinalState {
		t.Fatalf("run summaries diverge: event (cycles=%d completed=%v state=%q), cycle (cycles=%d completed=%v state=%q)",
			ev.Cycles, ev.Completed, ev.FinalState, cy.Cycles, cy.Completed, cy.FinalState)
	}
	evRows, cyRows := tr.Rows(), inst.TraceRows(0)
	if len(evRows) != len(cyRows) {
		t.Fatalf("trace lengths diverge: event %d rows, cycle %d rows", len(evRows), len(cyRows))
	}
	// The program's slots start with the plan's, in plan order.
	for row := range evRows {
		for s, key := range tr.Keys() {
			es, cs := evRows[row][s], cyRows[row][s]
			if es.Valid != cs.Valid || (es.Valid && es.Val != cs.Val) {
				t.Fatalf("edge %d %q: event %+v cycle %+v", row+1, key, es, cs)
			}
		}
	}
}
