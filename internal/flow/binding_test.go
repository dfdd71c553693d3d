package flow_test

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/xmlspec"
)

// counterDesign is a one-configuration loop counter: a register
// incremented under an FSM-driven enable while a status reads i < 3.
func counterDesign() *xmlspec.Design {
	d := xmlspec.NewDesign(&xmlspec.RTG{Name: "count", Start: "cfg1",
		Configurations: []xmlspec.Configuration{{ID: "cfg1", Datapath: "count", FSM: "count_ctl"}}})
	d.Datapaths["count"] = &xmlspec.Datapath{
		Name:  "count",
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "c1", Type: "const", Value: 1}, {ID: "cl", Type: "const", Value: 3},
			{ID: "r_i", Type: "reg"}, {ID: "add0", Type: "add"}, {ID: "lt0", Type: "lt"},
		},
		Connections: []xmlspec.Connection{
			{From: "r_i.q", To: "add0.a"}, {From: "c1.y", To: "add0.b"}, {From: "add0.y", To: "r_i.d"},
			{From: "r_i.q", To: "lt0.a"}, {From: "cl.y", To: "lt0.b"},
		},
		Controls: []xmlspec.Control{{Name: "en_i", Targets: []xmlspec.ControlTo{{Port: "r_i.en"}}}},
		Statuses: []xmlspec.Status{{Name: "i_lt", From: "lt0.y"}},
	}
	d.FSMs["count_ctl"] = &xmlspec.FSM{
		Name:    "count_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "i_lt"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en_i"}, {Name: "done"}},
		States: []xmlspec.State{
			{Name: "LOOP", Initial: true, Assigns: []xmlspec.Assign{{Signal: "en_i", Value: 1}},
				Transitions: []xmlspec.Transition{{Cond: "i_lt", Next: "LOOP"}, {Next: "END"}}},
			{Name: "END", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	return d
}

// TestBindingErrorsMatchAcrossBackends: a control with no FSM output and
// an FSM input with no datapath status pass per-document validation, so
// they surface when the controller resolves the configuration at its
// first visit — in one message on every backend, because both engines
// build from the same plan.
func TestBindingErrorsMatchAcrossBackends(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(d *xmlspec.Design)
		want string
	}{
		{"control without FSM output", func(d *xmlspec.Design) {
			fsm := d.FSMs["count_ctl"]
			fsm.Outputs = fsm.Outputs[1:]
			fsm.States[0].Assigns = nil
		}, `rtg: configuration "cfg1": netlist: count: control "en_i" has no FSM output`},
		{"FSM input without status", func(d *xmlspec.Design) {
			d.Datapaths["count"].Statuses = nil
		}, `rtg: configuration "cfg1": netlist: count: FSM input "i_lt" has no datapath status`},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, b := range flow.Backends() {
				p, err := flow.New(flow.WithBackend(b.Name))
				if err != nil {
					t.Fatal(err)
				}
				d := counterDesign()
				intact, err := p.PrepareDesign(d)
				if err != nil {
					t.Fatal(err)
				}
				if s, err := intact.Simulate(); err != nil || !s.Completed {
					t.Fatalf("%s: the intact design must run: %v", b.Name, err)
				}
				c.edit(d)
				prepared, err := p.PrepareDesign(d)
				if err != nil {
					t.Fatalf("%s: the error must wait for the first visit, got it at prepare: %v", b.Name, err)
				}
				if _, err := prepared.Simulate(); err == nil || err.Error() != c.want {
					t.Fatalf("%s: first visit error %q, want %q", b.Name, err, c.want)
				}
			}
		})
	}
}
