package xmlspec_test

import (
	"strings"
	"testing"

	"repro/internal/cycle"
	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// FuzzPlanBuildsOnBothEngines runs FuzzValidateDatapath's corpus through
// the plan: a datapath the validator accepts is bound to a minimal FSM
// (its controls as outputs, one initial and one final state), resolved,
// and built on both engines. Each build returns an error or a result,
// never panics, and the engines accept or reject together — save a
// combinational loop, which only the cycle compiler rejects at build
// time (the event kernel meets it when it runs). testdata/fuzz/ holds
// the same two oversized seeds as FuzzValidateDatapath's; ram and rom
// depths above operators.MaxDepth fail resolution before any memory is
// allocated.
func FuzzPlanBuildsOnBothEngines(f *testing.F) {
	addDatapathSeeds(f)
	reg := operators.DefaultRegistry()
	f.Fuzz(func(t *testing.T, doc []byte) {
		dp, err := xmlspec.ParseDatapath(doc)
		if err != nil || xmlspec.ValidateDatapath(dp, reg) != nil {
			return
		}
		fsm := &xmlspec.FSM{Name: "bind", States: []xmlspec.State{
			{Name: "s", Initial: true, Transitions: []xmlspec.Transition{{Next: "f"}}},
			{Name: "f", Final: true},
		}}
		for _, c := range dp.Controls {
			fsm.Outputs = append(fsm.Outputs, xmlspec.FSMSignal{Name: c.Name, Width: c.Width})
		}
		if err := xmlspec.ValidateFSM(fsm); err != nil {
			t.Fatalf("the binding FSM of a valid datapath must validate: %v", err)
		}
		plan, err := netlist.Resolve(dp, fsm)
		if err != nil {
			return
		}
		sim := hades.NewSimulator()
		_, evErr := netlist.Elaborate(sim, sim.NewSignal("clk", 1), plan, nil)
		_, cyErr := cycle.Compile(plan)
		loop := cyErr != nil && strings.Contains(cyErr.Error(), "combinational loop")
		if (evErr == nil) != (cyErr == nil) && !(evErr == nil && loop) {
			t.Fatalf("engines disagree on a resolved plan: event %v, cycle %v", evErr, cyErr)
		}
	})
}
