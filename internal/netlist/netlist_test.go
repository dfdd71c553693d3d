package netlist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/hades"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// build resolves a datapath/FSM pair and elaborates the plan on sim.
func build(sim *hades.Simulator, clk *hades.Signal, dp *xmlspec.Datapath, fsm *xmlspec.FSM, init map[string][]int64) (*Elaboration, error) {
	p, err := Resolve(dp, fsm)
	if err != nil {
		return nil, err
	}
	return Elaborate(sim, clk, p, init)
}

// counterDesign returns a datapath/FSM pair implementing
//
//	i = 0; while (i < limit) i = i + 1;
//
// with the loop register written through an FSM-controlled enable.
func counterDesign(limit int64) (*xmlspec.Datapath, *xmlspec.FSM) {
	dp := &xmlspec.Datapath{
		Name:  "count",
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "c1", Type: "const", Value: 1},
			{ID: "cl", Type: "const", Value: limit},
			{ID: "r_i", Type: "reg"},
			{ID: "add0", Type: "add"},
			{ID: "lt0", Type: "lt"},
		},
		Connections: []xmlspec.Connection{
			{From: "r_i.q", To: "add0.a"},
			{From: "c1.y", To: "add0.b"},
			{From: "add0.y", To: "r_i.d"},
			{From: "r_i.q", To: "lt0.a"},
			{From: "cl.y", To: "lt0.b"},
		},
		Controls: []xmlspec.Control{
			{Name: "en_i", Targets: []xmlspec.ControlTo{{Port: "r_i.en"}}},
		},
		Statuses: []xmlspec.Status{
			{Name: "i_lt", From: "lt0.y"},
		},
	}
	fsm := &xmlspec.FSM{
		Name:    "count_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "i_lt"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en_i"}, {Name: "done"}},
		States: []xmlspec.State{
			{
				Name: "LOOP", Initial: true,
				Assigns: []xmlspec.Assign{{Signal: "en_i", Value: 1}},
				Transitions: []xmlspec.Transition{
					{Cond: "i_lt", Next: "LOOP"},
					{Next: "END"},
				},
			},
			{Name: "END", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	return dp, fsm
}

func TestElaborateAndRunCounter(t *testing.T) {
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp, fsm := counterDesign(10)
	el, err := build(sim, clk, dp, fsm, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := el.RunToCompletion(10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("did not complete: %+v", res)
	}
	if res.FinalState != "END" {
		t.Fatalf("final state %s", res.FinalState)
	}
	// The loop register overshoots by one (the enable is still high on
	// the edge where the FSM leaves the loop), standard for this control
	// style: i counts 0..limit, then one extra increment lands.
	q := el.Signal("r_i.q")
	if q.Int() != 11 {
		t.Fatalf("r_i.q=%d want 11", q.Int())
	}
	if !el.Done.Bool() {
		t.Fatal("done must be asserted")
	}
	// ~1 cycle per iteration: 11 loop edges + 1 exit edge, small slack.
	if res.Cycles < 11 || res.Cycles > 14 {
		t.Fatalf("cycles=%d", res.Cycles)
	}
}

func TestElaborateExposesStructure(t *testing.T) {
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp, fsm := counterDesign(3)
	el, err := build(sim, clk, dp, fsm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(el.Components()) != 5 || el.Component("r_i") == nil {
		t.Fatalf("components=%d", len(el.Components()))
	}
	if el.Signal("ctl.en_i") == nil || el.Signal("ctl.done") == nil || el.Done != el.Signal("ctl.done") {
		t.Fatal("control signals missing")
	}
	if p := el.Plan(); p.Slots()[p.StatusSlot(0)].Name != "lt0.y" {
		t.Fatal("status i_lt must alias lt0.y")
	}
	if el.Signal("add0.y") == nil || el.Signal("r_i.q") == nil {
		t.Fatal("wires missing")
	}
}

func TestTimeZeroSettling(t *testing.T) {
	// Before any clock edge the combinational net must have settled from
	// power-on register values: add0.y = 0+1, lt0.y = (0<3).
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp, fsm := counterDesign(3)
	el, err := build(sim, clk, dp, fsm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(0); err != nil { // process only time-zero deltas
		t.Fatal(err)
	}
	if got := el.Signal("add0.y").Int(); got != 1 {
		t.Fatalf("add0.y=%d want 1", got)
	}
	if got := el.Signal("lt0.y").Uint(); got != 1 {
		t.Fatalf("lt0.y=%d want 1", got)
	}
}

func TestProbeAll(t *testing.T) {
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp, fsm := counterDesign(3)
	el, err := build(sim, clk, dp, fsm, nil)
	if err != nil {
		t.Fatal(err)
	}
	probes := el.ProbeAll(0, "r_i")
	if len(probes) != 1 || probes["r_i.q"] == nil {
		t.Fatalf("probes=%v", probes)
	}
	if _, err := el.RunToCompletion(10, 100); err != nil {
		t.Fatal(err)
	}
	// r_i.q visits 1..4 after power-on 0 (driven, not a change event).
	if probes["r_i.q"].Transitions() != 4 {
		t.Fatalf("transitions=%d", probes["r_i.q"].Transitions())
	}
	all := el.ProbeAll(0)
	if outputs := len(el.Plan().Slots()) - len(el.Plan().FSM().Outputs); len(all) != outputs {
		t.Fatalf("ProbeAll()=%d operator outputs=%d", len(all), outputs)
	}
}

func TestRunToCompletionCycleCap(t *testing.T) {
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp, fsm := counterDesign(1 << 30) // far beyond the cycle cap
	el, err := build(sim, clk, dp, fsm, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := el.RunToCompletion(10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("must not complete under the cap")
	}
	if res.Cycles > 51 {
		t.Fatalf("cycles=%d exceeded cap", res.Cycles)
	}
}

func TestFSMInputWithoutStatusFails(t *testing.T) {
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp, fsm := counterDesign(3)
	dp.Statuses = nil
	_, err := build(sim, clk, dp, fsm, nil)
	if err == nil || !strings.Contains(err.Error(), "no datapath status") {
		t.Fatalf("err=%v", err)
	}
}

func TestControlWithoutFSMOutputFails(t *testing.T) {
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp, fsm := counterDesign(3)
	fsm.Outputs = []xmlspec.FSMSignal{{Name: "done"}}
	fsm.States[0].Assigns = nil
	_, err := build(sim, clk, dp, fsm, nil)
	if err == nil || !strings.Contains(err.Error(), "no FSM output") {
		t.Fatalf("err=%v", err)
	}
}

func TestRAMTieDefaultsAllowReadOnly(t *testing.T) {
	// A ROM-style RAM: only read, we/din tied automatically.
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp := &xmlspec.Datapath{
		Name:  "romish",
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "m", Type: "ram", Depth: 8},
			{ID: "a0", Type: "const", Value: 2, Width: 3},
		},
		Connections: []xmlspec.Connection{
			{From: "a0.y", To: "m.addr"},
		},
		Statuses: []xmlspec.Status{{Name: "nz", From: "m.dout"}},
	}
	fsm := &xmlspec.FSM{
		Name:    "romish_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "nz"}},
		Outputs: []xmlspec.FSMSignal{{Name: "done"}},
		States: []xmlspec.State{
			{Name: "S", Initial: true, Transitions: []xmlspec.Transition{{Next: "E"}}},
			{Name: "E", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	el, err := build(sim, clk, dp, fsm, map[string][]int64{"m": {9, 8, 7, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := el.RunToCompletion(10, 10); err != nil {
		t.Fatal(err)
	}
	if el.Signal("m.dout").Int() != 7 {
		t.Fatalf("dout=%d want 7", el.Signal("m.dout").Int())
	}
}

func TestSharedRAMRefExposure(t *testing.T) {
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	dp := &xmlspec.Datapath{
		Name:  "shared",
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "m0", Type: "ram", Depth: 8, Ref: "img"},
			{ID: "a0", Type: "const", Value: 0, Width: 3},
		},
		Connections: []xmlspec.Connection{{From: "a0.y", To: "m0.addr"}},
		Statuses:    []xmlspec.Status{{Name: "s", From: "m0.dout"}},
	}
	fsm := &xmlspec.FSM{
		Name:    "shared_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "s"}},
		Outputs: []xmlspec.FSMSignal{{Name: "done"}},
		States: []xmlspec.State{
			{Name: "E", Initial: true, Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	el, err := build(sim, clk, dp, fsm, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := el.Component("m0").(*operators.RAM); !ok || el.Plan().Ops()[0].Ref != "img" {
		t.Fatal("shared memory binding missing")
	}
}

// TestResolveBoundsMemoryDepth: a ram or rom resolves with a depth in
// [1, operators.MaxDepth] and is rejected outside it, before anything
// of that size is allocated.
func TestResolveBoundsMemoryDepth(t *testing.T) {
	fsm := &xmlspec.FSM{
		Name:    "mem_ctl",
		Outputs: []xmlspec.FSMSignal{{Name: "done"}},
		States: []xmlspec.State{
			{Name: "E", Initial: true, Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	for _, typ := range []string{"ram", "rom"} {
		for _, depth := range []int{0, 1, operators.MaxDepth, operators.MaxDepth + 1} {
			dp := &xmlspec.Datapath{
				Name:  "mem",
				Width: 32,
				Operators: []xmlspec.Operator{
					{ID: "m", Type: typ, Depth: depth},
					{ID: "a0", Type: "const", Value: 0, Width: operators.AddrWidth(depth)},
				},
				Connections: []xmlspec.Connection{{From: "a0.y", To: "m.addr"}},
			}
			_, err := Resolve(dp, fsm)
			if ok := depth >= 1 && depth <= operators.MaxDepth; ok != (err == nil) {
				t.Fatalf("%s depth %d: err=%v", typ, depth, err)
			}
			want := fmt.Sprintf("netlist: mem: %s \"m\" needs a depth in [1, 16777216], has %d", typ, depth)
			if err != nil && err.Error() != want {
				t.Fatalf("%s depth %d: err=%q, want %q", typ, depth, err, want)
			}
		}
	}
}
