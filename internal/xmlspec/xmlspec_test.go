package xmlspec

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/hades"
	"repro/internal/operators"
)

// smallDatapath builds a minimal valid datapath: a counter-style loop
// register incremented by a constant, with a comparison status.
func smallDatapath() *Datapath {
	return &Datapath{
		Name:  "count",
		Width: 32,
		Operators: []Operator{
			{ID: "c1", Type: "const", Value: 1},
			{ID: "c10", Type: "const", Value: 10},
			{ID: "r_i", Type: "reg"},
			{ID: "add0", Type: "add"},
			{ID: "lt0", Type: "lt"},
		},
		Connections: []Connection{
			{From: "r_i.q", To: "add0.a"},
			{From: "c1.y", To: "add0.b"},
			{From: "add0.y", To: "r_i.d"},
			{From: "r_i.q", To: "lt0.a"},
			{From: "c10.y", To: "lt0.b"},
		},
		Controls: []Control{
			{Name: "en_i", Targets: []ControlTo{{Port: "r_i.en"}}},
		},
		Statuses: []Status{
			{Name: "i_lt_10", From: "lt0.y"},
		},
	}
}

func smallFSM() *FSM {
	return &FSM{
		Name:    "count_ctl",
		Inputs:  []FSMSignal{{Name: "i_lt_10"}},
		Outputs: []FSMSignal{{Name: "en_i"}, {Name: "done"}},
		States: []State{
			{
				Name: "S0", Initial: true,
				Assigns:     []Assign{{Signal: "en_i", Value: 1}},
				Transitions: []Transition{{Cond: "i_lt_10", Next: "S0"}, {Next: "END"}},
			},
			{
				Name: "END", Final: true,
				Assigns: []Assign{{Signal: "done", Value: 1}},
			},
		},
	}
}

func smallRTG() *RTG {
	return &RTG{
		Name:  "count",
		Start: "cfg0",
		Configurations: []Configuration{
			{ID: "cfg0", Datapath: "count", FSM: "count_ctl"},
		},
	}
}

func TestDatapathRoundTrip(t *testing.T) {
	dp := smallDatapath()
	doc, err := Marshal(dp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseDatapath(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != dp.Name || len(back.Operators) != len(dp.Operators) ||
		len(back.Connections) != len(dp.Connections) ||
		len(back.Controls) != len(dp.Controls) || len(back.Statuses) != len(dp.Statuses) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if back.Controls[0].Targets[0].Port != "r_i.en" {
		t.Fatalf("nested control target lost: %+v", back.Controls[0])
	}
}

func TestFSMRoundTrip(t *testing.T) {
	f := smallFSM()
	doc, err := Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseFSM(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != f.Name || len(back.States) != 2 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	s0, ok := back.FindState("S0")
	if !ok || !s0.Initial || len(s0.Transitions) != 2 || s0.Transitions[0].Cond != "i_lt_10" {
		t.Fatalf("state S0 mismatch: %+v", s0)
	}
	if ini, ok := back.InitialState(); !ok || ini.Name != "S0" {
		t.Fatal("initial state lookup failed")
	}
}

func TestRTGRoundTrip(t *testing.T) {
	r := &RTG{
		Name:  "fdct2",
		Start: "cfg1",
		Memories: []SharedMemory{
			{ID: "m_in", Depth: 4096},
			{ID: "m_tmp", Depth: 4096, Width: 16},
		},
		Configurations: []Configuration{
			{ID: "cfg1", Datapath: "p1", FSM: "f1"},
			{ID: "cfg2", Datapath: "p2", FSM: "f2"},
		},
		Transitions: []RTGTransition{{From: "cfg1", To: "cfg2", On: "done"}},
	}
	doc, err := Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseRTG(doc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Successor("cfg1") != "cfg2" || back.Successor("cfg2") != "" {
		t.Fatal("successor lookup wrong")
	}
	if m, ok := back.FindMemory("m_tmp"); !ok || m.MemWidth() != 16 {
		t.Fatal("memory lookup wrong")
	}
	if m, ok := back.FindMemory("m_in"); !ok || m.MemWidth() != 32 {
		t.Fatal("default width wrong")
	}
}

func TestValidateDatapathAcceptsGood(t *testing.T) {
	if err := ValidateDatapath(smallDatapath(), operators.DefaultRegistry()); err != nil {
		t.Fatal(err)
	}
}

// datapathProblems mutates smallDatapath into one invalid datapath per
// check; expect is a substring of the problem reported. The fuzz test
// seeds its corpus with these mutations too.
var datapathProblems = []struct {
	name   string
	mutate func(*Datapath)
	expect string
}{
	{"unknown type", func(d *Datapath) { d.Operators[0].Type = "frobnicate" }, "unknown type"},
	{"duplicate id", func(d *Datapath) { d.Operators[1].ID = "c1" }, "duplicate operator id"},
	{"unknown instance", func(d *Datapath) { d.Connections[0].To = "nope.a" }, "unknown instance"},
	{"unknown port", func(d *Datapath) { d.Connections[0].To = "add0.zz" }, "no port"},
	{"direction", func(d *Datapath) { d.Connections[0].To = "add0.y" }, "not an input"},
	{"malformed", func(d *Datapath) { d.Connections[0].From = "bare" }, "malformed endpoint"},
	{"double drive", func(d *Datapath) {
		d.Connections = append(d.Connections, Connection{From: "c10.y", To: "add0.a"})
	}, "already driven"},
	{"control no targets", func(d *Datapath) { d.Controls[0].Targets = nil }, "no targets"},
	{"status not output", func(d *Datapath) { d.Statuses[0].From = "lt0.a" }, "not an output"},
	{"missing id", func(d *Datapath) { d.Operators[0].ID = "" }, "has no id"},
	{"mux fan-in", func(d *Datapath) {
		d.Operators = append(d.Operators, Operator{ID: "m0", Type: "mux", Inputs: 1 << 40})
	}, `operator "m0" has 1099511627776 mux inputs`},
	// A mux with seven inputs has nine ports, a list long enough to be
	// looked up by map rather than searched in place.
	{"wide mux no port", func(d *Datapath) {
		d.Operators = append(d.Operators, Operator{ID: "m0", Type: "mux", Inputs: 7})
		d.Connections = append(d.Connections, Connection{From: "c1.y", To: "m0.in6"}, Connection{From: "c1.y", To: "m0.in7"})
	}, `connect to=m0.in7: instance "m0" has no port "in7"`},
	{"wide mux double drive", func(d *Datapath) {
		d.Operators = append(d.Operators, Operator{ID: "m0", Type: "mux", Inputs: 7})
		d.Connections = append(d.Connections, Connection{From: "c1.y", To: "m0.in6"}, Connection{From: "c10.y", To: "m0.in6"})
	}, `endpoint "m0.in6" already driven by connect to=m0.in6`},
}

func TestValidateDatapathProblems(t *testing.T) {
	reg := operators.DefaultRegistry()
	for _, c := range datapathProblems {
		t.Run(c.name, func(t *testing.T) {
			dp := smallDatapath()
			c.mutate(dp)
			err := ValidateDatapath(dp, reg)
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), c.expect) {
				t.Fatalf("error %q does not mention %q", err, c.expect)
			}
			var ve *ValidationError
			if !errors.As(err, &ve) {
				t.Fatalf("error %T is not a *ValidationError", err)
			}
		})
	}
}

// TestValidateRejectsHugeMuxFanIn validates a datapath loaded from XML
// whose one mux claims 2^40 inputs. Its port list would take terabytes,
// so the validator must reject the fan-in without building it: nothing
// drives those inputs.
func TestValidateRejectsHugeMuxFanIn(t *testing.T) {
	doc := []byte(`<datapath name="d" width="8"><operators><operator id="m" type="mux" inputs="1099511627776"/></operators></datapath>`)
	dp, err := ParseDatapath(doc)
	if err != nil {
		t.Fatal(err)
	}
	err = ValidateDatapath(dp, operators.DefaultRegistry())
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err=%v, want a *ValidationError", err)
	}
	want := `operator "m" has 1099511627776 mux inputs, more than the 0 connections and control targets that could drive them`
	if len(ve.Problems) != 1 || ve.Problems[0] != want {
		t.Fatalf("problems=%q, want [%q]", ve.Problems, want)
	}
}

func TestValidateFSMAcceptsGood(t *testing.T) {
	if err := ValidateFSM(smallFSM()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateFSMProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*FSM)
		expect string
	}{
		{"no initial", func(f *FSM) { f.States[0].Initial = false }, "exactly one initial"},
		{"two initials", func(f *FSM) { f.States[1].Initial = true }, "exactly one initial"},
		{"no final", func(f *FSM) { f.States[1].Final = false; f.States[1].Transitions = []Transition{{Next: "S0"}} }, "at least one final"},
		{"dup state", func(f *FSM) { f.States[1].Name = "S0" }, "duplicate state"},
		{"bad next", func(f *FSM) { f.States[0].Transitions[1].Next = "missing" }, "unknown state"},
		{"bad assign", func(f *FSM) { f.States[0].Assigns[0].Signal = "ghost" }, "undeclared output"},
		{"dup input", func(f *FSM) { f.Inputs = append(f.Inputs, FSMSignal{Name: "i_lt_10"}) }, "duplicate input"},
		{"dup output", func(f *FSM) { f.Outputs = append(f.Outputs, FSMSignal{Name: "en_i"}) }, "duplicate output"},
		{"dead state", func(f *FSM) {
			f.States = append(f.States, State{Name: "ORPHAN"})
		}, "no transitions"},
		{"early default", func(f *FSM) {
			f.States[0].Transitions = []Transition{{Next: "END"}, {Cond: "i_lt_10", Next: "S0"}}
		}, "not last"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := smallFSM()
			c.mutate(f)
			err := ValidateFSM(f)
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), c.expect) {
				t.Fatalf("error %q does not mention %q", err, c.expect)
			}
		})
	}
}

func TestValidateRTGProblems(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*RTG)
		expect string
	}{
		{"bad start", func(r *RTG) { r.Start = "zzz" }, "not defined"},
		{"dup cfg", func(r *RTG) {
			r.Configurations = append(r.Configurations, Configuration{ID: "cfg0", Datapath: "x", FSM: "y"})
		}, "duplicate configuration"},
		{"empty", func(r *RTG) { r.Configurations = nil }, "no configurations"},
		{"bad transition", func(r *RTG) {
			r.Transitions = []RTGTransition{{From: "cfg0", To: "missing"}}
		}, "unknown configuration"},
		{"bad memory", func(r *RTG) {
			r.Memories = []SharedMemory{{ID: "m", Depth: 0}}
		}, "positive depth"},
		{"dup memory", func(r *RTG) {
			r.Memories = []SharedMemory{{ID: "m", Depth: 4}, {ID: "m", Depth: 4}}
		}, "duplicate memory"},
		{"fanout", func(r *RTG) {
			r.Configurations = append(r.Configurations, Configuration{ID: "c2", Datapath: "x", FSM: "y"})
			r.Transitions = []RTGTransition{{From: "cfg0", To: "c2"}, {From: "cfg0", To: "c2"}}
		}, "more than one outgoing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := smallRTG()
			c.mutate(r)
			err := ValidateRTG(r)
			if err == nil {
				t.Fatal("expected validation error")
			}
			if !strings.Contains(err.Error(), c.expect) {
				t.Fatalf("error %q does not mention %q", err, c.expect)
			}
		})
	}
}

func TestValidateDesignCrossRefs(t *testing.T) {
	reg := operators.DefaultRegistry()
	d := NewDesign(smallRTG())
	d.RTG.Configurations = nil // AddConfiguration re-adds
	d.AddConfiguration("cfg0", smallDatapath(), smallFSM())
	d.RTG.Start = "cfg0"
	if err := ValidateDesign(d, reg); err != nil {
		t.Fatal(err)
	}

	// A ram Ref to an undeclared shared memory must fail.
	dp := d.Datapaths["count"]
	dp.Operators = append(dp.Operators, Operator{ID: "m0", Type: "ram", Depth: 8, Ref: "ghost"})
	err := ValidateDesign(d, reg)
	if err == nil || !strings.Contains(err.Error(), "unknown shared memory") {
		t.Fatalf("err=%v", err)
	}
}

func TestValidateDesignMissingDocs(t *testing.T) {
	reg := operators.DefaultRegistry()
	d := NewDesign(smallRTG())
	err := ValidateDesign(d, reg)
	if err == nil || !strings.Contains(err.Error(), "missing datapath") {
		t.Fatalf("err=%v", err)
	}
}

func TestSaveLoadDesign(t *testing.T) {
	dir := t.TempDir()
	d := NewDesign(&RTG{Name: "count", Start: "cfg0"})
	d.AddConfiguration("cfg0", smallDatapath(), smallFSM())
	files, err := SaveDesign(d, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{"rtg", "datapath:count", "fsm:count_ctl"} {
		if files[label] == "" {
			t.Fatalf("missing file for %s: %v", label, files)
		}
	}
	back, err := LoadDesign(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateDesign(back, operators.DefaultRegistry()); err != nil {
		t.Fatal(err)
	}
	if back.Datapaths["count"].OperatorCount() != 5 {
		t.Fatalf("operators=%d", back.Datapaths["count"].OperatorCount())
	}
}

func TestLineCount(t *testing.T) {
	doc := []byte("a\n\n  \nb\nc\n")
	if got := LineCount(doc); got != 3 {
		t.Fatalf("LineCount=%d want 3", got)
	}
	dp, err := Marshal(smallDatapath())
	if err != nil {
		t.Fatal(err)
	}
	if LineCount(dp) < 10 {
		t.Fatalf("marshalled datapath suspiciously short:\n%s", dp)
	}
}

func TestParamsOfDefaults(t *testing.T) {
	op := &Operator{ID: "x", Type: "add"}
	p := ParamsOf(op, 0)
	if p.Width != 32 {
		t.Fatalf("width=%d want 32 default", p.Width)
	}
	p = ParamsOf(op, 16)
	if p.Width != 16 {
		t.Fatalf("width=%d want datapath default 16", p.Width)
	}
	op.Width = 8
	p = ParamsOf(op, 16)
	if p.Width != 8 {
		t.Fatalf("width=%d want explicit 8", p.Width)
	}
}

func TestOperatorCountMatchesTableIColumn(t *testing.T) {
	dp := smallDatapath()
	if dp.OperatorCount() != 5 {
		t.Fatalf("OperatorCount=%d", dp.OperatorCount())
	}
	if _, ok := dp.FindOperator("add0"); !ok {
		t.Fatal("FindOperator failed")
	}
	if _, ok := dp.FindOperator("nope"); ok {
		t.Fatal("FindOperator false positive")
	}
}

// TestValidateRejectsWidthsBeyondKernel pins the width limit in every
// dialect: a width the event kernel cannot carry (one uint64 per
// signal) is a validation error, not a panic later in elaboration, and
// hades.MaxWidth itself still validates.
func TestValidateRejectsWidthsBeyondKernel(t *testing.T) {
	reg := operators.DefaultRegistry()
	for _, w := range []int{hades.MaxWidth + 1, 100, -1} {
		dps := map[string]func(*Datapath){
			"datapath": func(d *Datapath) { d.Width = w },
			"operator": func(d *Datapath) { d.Operators[2].Width = w },
			"control":  func(d *Datapath) { d.Controls[0].Width = w },
			"status":   func(d *Datapath) { d.Statuses[0].Width = w },
		}
		for name, mutate := range dps {
			dp := smallDatapath()
			mutate(dp)
			if err := ValidateDatapath(dp, reg); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("width %d", w)) {
				t.Errorf("%s width %d: err=%v", name, w, err)
			}
		}
		fsms := map[string]func(*FSM){
			"input":  func(f *FSM) { f.Inputs[0].Width = w },
			"output": func(f *FSM) { f.Outputs[0].Width = w },
		}
		for name, mutate := range fsms {
			f := smallFSM()
			mutate(f)
			if err := ValidateFSM(f); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("width %d", w)) {
				t.Errorf("fsm %s width %d: err=%v", name, w, err)
			}
		}
		r := smallRTG()
		r.Memories = []SharedMemory{{ID: "m", Depth: 4, Width: w}}
		if err := ValidateRTG(r); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("width %d", w)) {
			t.Errorf("memory width %d: err=%v", w, err)
		}
	}

	dp := smallDatapath()
	dp.Width = hades.MaxWidth
	if err := ValidateDatapath(dp, reg); err != nil {
		t.Fatalf("width %d must validate: %v", hades.MaxWidth, err)
	}
}
