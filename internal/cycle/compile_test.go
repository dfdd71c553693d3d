package cycle_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cycle"
	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// compile resolves a datapath/FSM pair and levelizes the plan.
func compile(t *testing.T, dp *xmlspec.Datapath, fsm *xmlspec.FSM) (*cycle.Program, error) {
	t.Helper()
	plan, err := netlist.Resolve(dp, fsm)
	if err != nil {
		t.Fatal(err)
	}
	return cycle.Compile(plan)
}

// loopFSM is the smallest control unit binding one status line.
func loopFSM(status string) *xmlspec.FSM {
	return &xmlspec.FSM{
		Name:    "ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: status}},
		Outputs: []xmlspec.FSMSignal{{Name: "done"}},
		States: []xmlspec.State{
			{Name: "S", Initial: true, Transitions: []xmlspec.Transition{{Next: "E"}}},
			{Name: "E", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
}

// TestCompileRejectsCombinationalLoop: two unary operators feeding each
// other form a cycle no levelization can order — the compiler must name
// the slots on the loop instead of looping itself.
func TestCompileRejectsCombinationalLoop(t *testing.T) {
	dp := &xmlspec.Datapath{
		Name:  "looped",
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "n0", Type: "not"},
			{ID: "n1", Type: "not"},
		},
		Connections: []xmlspec.Connection{
			{From: "n0.y", To: "n1.a"},
			{From: "n1.y", To: "n0.a"},
		},
		Statuses: []xmlspec.Status{{Name: "s", From: "n0.y"}},
	}
	_, err := compile(t, dp, loopFSM("s"))
	if !errors.Is(err, cycle.ErrCombinationalLoop) {
		t.Fatalf("want combinational-loop error, got %v", err)
	}
	if !strings.Contains(err.Error(), "n0.y") || !strings.Contains(err.Error(), "n1.y") {
		t.Fatalf("loop error must name the looped slots, got %v", err)
	}
}

// TestEveryLibraryTypeRunsOnBothEngines: every operator type the
// library declares resolves, elaborates on the event kernel, compiles
// on the cycle engine, and runs to the same value on every slot at
// every clock edge — so a type added without a compiled model fails
// here, not in a user's run.
func TestEveryLibraryTypeRunsOnBothEngines(t *testing.T) {
	types := operators.DefaultRegistry().Types()
	sort.Strings(types)
	for _, typ := range types {
		typ := typ
		t.Run(typ, func(t *testing.T) {
			dp := oneOperator(typ)
			fsm := &xmlspec.FSM{
				Name:    "steps",
				Outputs: []xmlspec.FSMSignal{{Name: "done"}},
				States: []xmlspec.State{
					{Name: "S0", Initial: true, Transitions: []xmlspec.Transition{{Next: "S1"}}},
					{Name: "S1", Transitions: []xmlspec.Transition{{Next: "E"}}},
					{Name: "E", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
				},
			}
			design := &xmlspec.Design{
				RTG: &xmlspec.RTG{Name: typ, Start: "c",
					Configurations: []xmlspec.Configuration{{ID: "c", Datapath: dp.Name, FSM: fsm.Name}}},
				Datapaths: map[string]*xmlspec.Datapath{dp.Name: dp},
				FSMs:      map[string]*xmlspec.FSM{fsm.Name: fsm},
			}
			if err := xmlspec.ValidateDesign(design, operators.DefaultRegistry()); err != nil {
				t.Fatal(err)
			}
			ev := walkEvent(t, design, map[string][]int64{}, 10)
			cy := walkCycle(t, design, map[string][]int64{}, 10)
			compareWalks(t, ev, cy)
			if len(ev) != 1 || !ev[0].completed {
				t.Fatalf("the one configuration must complete: %+v", ev)
			}
		})
	}
}

// oneOperator is a datapath holding one operator of the given type,
// every input it must have driven fed by a constant of its width.
func oneOperator(typ string) *xmlspec.Datapath {
	x := xmlspec.Operator{ID: "x", Type: typ, Width: 8, Value: 5, Depth: 4, Inputs: 3}
	dp := &xmlspec.Datapath{Name: "one-" + typ, Operators: []xmlspec.Operator{x}}
	spec, _ := operators.DefaultRegistry().Lookup(typ)
	for i, ps := range spec.Ports(xmlspec.ParamsOf(&x, 0)) {
		if ps.Dir != operators.In || ps.Bind != operators.Driven {
			continue
		}
		c := fmt.Sprintf("c%d", i)
		dp.Operators = append(dp.Operators, xmlspec.Operator{ID: c, Type: "const", Width: ps.Width, Value: int64(i + 1)})
		dp.Connections = append(dp.Connections, xmlspec.Connection{From: c + ".y", To: "x." + ps.Name})
	}
	return dp
}

// TestRunRejectsShortPeriod mirrors hades.NewClock's period floor as an
// error instead of a panic.
func TestRunRejectsShortPeriod(t *testing.T) {
	dp := &xmlspec.Datapath{
		Name:      "tiny",
		Width:     32,
		Operators: []xmlspec.Operator{{ID: "c0", Type: "const", Value: 1}},
		Statuses:  []xmlspec.Status{{Name: "s", From: "c0.y"}},
	}
	prog, err := compile(t, dp, loopFSM("s"))
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(1)
	inst.Reset(0, nil)
	if err := inst.Run(1, 10, nil); err == nil {
		t.Fatal("period 1 must error")
	}
}
