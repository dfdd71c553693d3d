package fsmsim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hades"
	"repro/internal/xmlspec"
)

// env evaluates guards parsed against inputs, reading each input's
// truth from a map by name.
type env struct {
	inputs []string
	truth  map[string]bool
}

func (e env) Truth(i int) bool { return e.truth[e.inputs[i]] }

func TestParseCondBasics(t *testing.T) {
	inputs := []string{"a", "b", "c_1"}
	cases := []struct {
		src   string
		truth map[string]bool
		want  bool
	}{
		{"", nil, true},
		{"1", nil, true},
		{"0", nil, false},
		{"a", map[string]bool{"a": true}, true},
		{"a", map[string]bool{}, false},
		{"!a", map[string]bool{}, true},
		{"a & b", map[string]bool{"a": true, "b": true}, true},
		{"a & b", map[string]bool{"a": true}, false},
		{"a | b", map[string]bool{"b": true}, true},
		{"a | b", map[string]bool{}, false},
		{"!(a | b)", map[string]bool{}, true},
		{"!a & !b", map[string]bool{}, true},
		{"a & b | c_1", map[string]bool{"c_1": true}, true}, // & binds tighter
		{"a & (b | c_1)", map[string]bool{"a": true, "c_1": true}, true},
		{"!!a", map[string]bool{"a": true}, true},
	}
	for _, c := range cases {
		cond, err := ParseCond(c.src, inputs)
		if err != nil {
			t.Fatalf("ParseCond(%q): %v", c.src, err)
		}
		if got := cond.Eval(env{inputs, c.truth}); got != c.want {
			t.Errorf("%q with %v = %v, want %v", c.src, c.truth, got, c.want)
		}
	}
}

func TestParseCondErrors(t *testing.T) {
	inputs := []string{"a"}
	for _, src := range []string{"ghost", "a &", "(a", "a )", "a b", "&", "a @ b",
		nestedCond("(", MaxNesting+1), nestedCond("!", MaxNesting+1)} {
		if _, err := ParseCond(src, inputs); err == nil {
			t.Errorf("ParseCond(%q) must fail", src)
		}
	}
	// The error names the first level past the bound; at the bound
	// itself the guard parses.
	want := fmt.Sprintf("nesting deeper than %d at offset %d", MaxNesting, MaxNesting)
	if _, err := ParseCond(nestedCond("(", MaxNesting+1), inputs); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("one level past the bound: %v, want %q", err, want)
	}
	for _, src := range []string{nestedCond("(", MaxNesting), nestedCond("!", MaxNesting)} {
		if _, err := ParseCond(src, inputs); err != nil {
			t.Errorf("at the nesting bound: %v", err)
		}
	}
}

// nestedCond wraps the input a in n levels of open ("(" or "!").
func nestedCond(open string, n int) string {
	if open == "(" {
		return strings.Repeat("(", n) + "a" + strings.Repeat(")", n)
	}
	return strings.Repeat(open, n) + "a"
}

// TestParseCondResolvesInputPositions: a guard reads its identifiers by
// their position among the declared inputs, and an identifier no input
// declares is an error, with no inputs at all too.
func TestParseCondResolvesInputPositions(t *testing.T) {
	cond, err := ParseCond("b & !a", []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		truth []bool
		want  bool
	}{{[]bool{false, true}, true}, {[]bool{true, true}, false}, {[]bool{false, false}, false}} {
		if got := cond.Eval(boolEnv(c.truth)); got != c.want {
			t.Errorf("inputs %v: %v, want %v", c.truth, got, c.want)
		}
	}
	if _, err := ParseCond("whatever", nil); err == nil || !strings.Contains(err.Error(), "unknown status") {
		t.Fatalf("an undeclared identifier must fail, got %v", err)
	}
}

type boolEnv []bool

func (e boolEnv) Truth(i int) bool { return e[i] }

func TestCondStringRoundTripProperty(t *testing.T) {
	// Property: rendering a parsed condition and re-parsing it preserves
	// semantics on random environments.
	inputs := []string{"a", "b", "c"}
	srcs := []string{"a", "!a", "a & b", "a | b & !c", "!(a & b) | c", "a & !b & c"}
	f := func(av, bv, cv bool, idx uint8) bool {
		src := srcs[int(idx)%len(srcs)]
		c1, err := ParseCond(src, inputs)
		if err != nil {
			return false
		}
		c2, err := ParseCond(c1.String(), inputs)
		if err != nil {
			return false
		}
		e := boolEnv{av, bv, cv}
		return c1.Eval(e) == c2.Eval(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// counterFSM is the control unit of a loop running while lt is true.
func counterFSM() *xmlspec.FSM {
	return &xmlspec.FSM{
		Name:    "ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "lt"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en"}, {Name: "done"}},
		States: []xmlspec.State{
			{
				Name: "LOOP", Initial: true,
				Assigns: []xmlspec.Assign{{Signal: "en", Value: 1}},
				Transitions: []xmlspec.Transition{
					{Cond: "lt", Next: "LOOP"},
					{Next: "END"},
				},
			},
			{
				Name: "END", Final: true,
				Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}},
			},
		},
	}
}

type machineFixture struct {
	sim          *hades.Simulator
	clk          *hades.Signal
	lt, en, done *hades.Signal
	m            *Machine
}

func newMachineFixture(t *testing.T) *machineFixture {
	t.Helper()
	sim := hades.NewSimulator()
	f := &machineFixture{
		sim:  sim,
		clk:  sim.NewSignal("clk", 1),
		lt:   sim.NewSignal("lt", 1),
		en:   sim.NewSignal("en", 1),
		done: sim.NewSignal("done", 1),
	}
	m, err := New(sim, counterTable(t), f.clk, []*hades.Signal{f.lt}, []*hades.Signal{f.en, f.done})
	if err != nil {
		t.Fatal(err)
	}
	f.m = m
	return f
}

func counterTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable(counterFSM())
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func (f *machineFixture) tick(t *testing.T) {
	t.Helper()
	f.sim.Set(f.clk, 1, 2)
	f.sim.Set(f.clk, 0, 7)
	if _, err := f.sim.Run(f.sim.Now() + 8); err != nil {
		t.Fatal(err)
	}
}

func TestMachineInitialOutputs(t *testing.T) {
	f := newMachineFixture(t)
	if !f.en.Bool() || f.done.Bool() {
		t.Fatalf("initial outputs en=%v done=%v", f.en.Bool(), f.done.Bool())
	}
	if f.m.CurrentState() != "LOOP" || f.m.InFinal() {
		t.Fatalf("state=%s", f.m.CurrentState())
	}
}

func TestMachineLoopsWhileStatusTrue(t *testing.T) {
	f := newMachineFixture(t)
	f.sim.Drive(f.lt, 1)
	for i := 0; i < 5; i++ {
		f.tick(t)
		if f.m.CurrentState() != "LOOP" {
			t.Fatalf("tick %d: state=%s", i, f.m.CurrentState())
		}
	}
	f.sim.Drive(f.lt, 0)
	f.tick(t)
	if f.m.CurrentState() != "END" || !f.m.InFinal() {
		t.Fatalf("state=%s", f.m.CurrentState())
	}
	if !f.done.Bool() || f.en.Bool() {
		t.Fatalf("final outputs en=%v done=%v", f.en.Bool(), f.done.Bool())
	}
	if f.m.Cycles() != 6 {
		t.Fatalf("cycles=%d want 6", f.m.Cycles())
	}
}

func TestMachineTrace(t *testing.T) {
	f := newMachineFixture(t)
	f.m.EnableTrace(3)
	f.sim.Drive(f.lt, 1)
	for i := 0; i < 5; i++ {
		f.tick(t)
	}
	f.sim.Drive(f.lt, 0)
	f.tick(t)
	tr := f.m.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace=%v", tr)
	}
	if tr[2] != "END" {
		t.Fatalf("trace=%v", tr)
	}
}

func TestMachineUnboundSignalsFail(t *testing.T) {
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	en := sim.NewSignal("en", 1)
	done := sim.NewSignal("done", 1)
	tab := counterTable(t)
	_, err := New(sim, tab, clk, nil, []*hades.Signal{en, done}) // lt missing
	if err == nil || !strings.Contains(err.Error(), `input "lt" not bound`) {
		t.Fatalf("err=%v", err)
	}
	lt := sim.NewSignal("lt", 1)
	_, err = New(sim, tab, clk, []*hades.Signal{lt}, []*hades.Signal{en}) // done missing
	if err == nil || !strings.Contains(err.Error(), `output "done" not bound`) {
		t.Fatalf("err=%v", err)
	}
}

// TestMachineRejectsInvalidFSM: a table needs the initial state it
// starts every run from.
func TestMachineRejectsInvalidFSM(t *testing.T) {
	bad := counterFSM()
	bad.States[0].Initial = false
	if _, err := NewTable(bad); err == nil || !strings.Contains(err.Error(), "no initial state") {
		t.Fatalf("an FSM without an initial state must be rejected, got %v", err)
	}
}

func TestMachineRejectsBadGuard(t *testing.T) {
	bad := counterFSM()
	bad.States[0].Transitions[0].Cond = "ghost"
	if _, err := NewTable(bad); err == nil || !strings.Contains(err.Error(), "unknown status") {
		t.Fatalf("err=%v", err)
	}
}

func TestMooreSamplingUsesPreEdgeStatus(t *testing.T) {
	// The status flips in the same instant as the edge via a zero-delay
	// event scheduled after the edge; the machine must still see the old
	// value at that edge.
	f := newMachineFixture(t)
	f.sim.Drive(f.lt, 1)
	f.tick(t) // stays LOOP
	// Schedule lt:=0 exactly at the next rising edge time.
	f.sim.Set(f.clk, 1, 2)
	f.sim.Set(f.lt, 0, 2)
	f.sim.Set(f.clk, 0, 7)
	if _, err := f.sim.Run(f.sim.Now() + 8); err != nil {
		t.Fatal(err)
	}
	// lt=0 and clk=1 arrive in the same delta; guard evaluation happens in
	// the reaction phase after both updates, so the machine sees lt=0 and
	// exits. This documents the kernel's same-delta semantics.
	if f.m.CurrentState() != "END" {
		t.Fatalf("state=%s", f.m.CurrentState())
	}
}
