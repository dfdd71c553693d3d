package fsmsim

import (
	"fmt"

	"repro/internal/hades"
	"repro/internal/xmlspec"
)

// Table is an fsm.xml control unit resolved for execution: states by
// index, each with its Moore output vector and its guarded edges, the
// guards parsed against the declared inputs. One table serves every
// run of a configuration on both engines — the event kernel's Machine
// and the cycle compiler read it, and neither reparses the document.
// A Table is immutable once built.
type Table struct {
	Name    string
	Inputs  []string // status inputs in declaration order; guards index them
	Outputs []string // control outputs in declaration order; Moore vectors index them
	States  []State
	Initial int
}

// State is one resolved FSM state.
type State struct {
	Name  string
	Final bool
	Out   []int64      // Moore output vector over Outputs; unassigned outputs are 0
	Next  []Transition // guarded edges in priority order
}

// Transition is a guarded edge to state To.
type Transition struct {
	Cond Cond
	To   int
}

// NewTable resolves an FSM document. The document must have passed
// the xmlspec FSM validator; NewTable reports what it cannot resolve (a guard
// over an undeclared input, an unknown state, no initial state) instead
// of checking the document again.
func NewTable(spec *xmlspec.FSM) (*Table, error) {
	t := &Table{Name: spec.Name, Initial: -1, States: make([]State, len(spec.States))}
	for _, in := range spec.Inputs {
		t.Inputs = append(t.Inputs, in.Name)
	}
	for _, out := range spec.Outputs {
		t.Outputs = append(t.Outputs, out.Name)
	}
	byName := make(map[string]int, len(spec.States))
	for i, st := range spec.States {
		byName[st.Name] = i
	}
	// Each state's output vector holds the value of its first assign to
	// each output; all states share one array.
	vecs := make([]int64, len(spec.States)*len(spec.Outputs))
	for i, st := range spec.States {
		ts := &t.States[i]
		ts.Name, ts.Final = st.Name, st.Final
		ts.Out = vecs[i*len(spec.Outputs) : (i+1)*len(spec.Outputs)]
		for k, out := range t.Outputs {
			for _, a := range st.Assigns {
				if a.Signal == out {
					ts.Out[k] = a.Value
					break
				}
			}
		}
		for _, tr := range st.Transitions {
			c, err := ParseCond(tr.Cond, t.Inputs)
			if err != nil {
				return nil, fmt.Errorf("fsmsim: %s state %s: %w", spec.Name, st.Name, err)
			}
			to, ok := byName[tr.Next]
			if !ok {
				return nil, fmt.Errorf("fsmsim: %s state %s: unknown next state %q", spec.Name, st.Name, tr.Next)
			}
			ts.Next = append(ts.Next, Transition{Cond: c, To: to})
		}
		if st.Initial {
			t.Initial = i
		}
	}
	if t.Initial < 0 {
		return nil, fmt.Errorf("fsmsim: %s: no initial state", spec.Name)
	}
	return t, nil
}

// Machine is the executable form of an fsm.xml control unit: a Moore
// machine clocked by the global clock, reading status signals and driving
// control signals. It is the direct counterpart of the fsm.java classes
// the paper's XSLT generates for Hades.
type Machine struct {
	hades.IDBase
	tab *Table
	clk *hades.Signal

	inputs  []*hades.Signal // parallel to tab.Inputs
	outputs []*hades.Signal // parallel to tab.Outputs

	current int
	prevClk bool
	cycles  uint64
	trace   []string
	keepLog int
}

// New binds a resolved FSM to live signals: inputs holds one signal per
// declared input, outputs one per declared output, both in declaration
// order. The machine starts in the initial state and drives that state's
// outputs at elaboration time.
func New(sim *hades.Simulator, tab *Table, clk *hades.Signal, inputs, outputs []*hades.Signal) (*Machine, error) {
	for i, name := range tab.Inputs {
		if i >= len(inputs) || inputs[i] == nil {
			return nil, fmt.Errorf("fsmsim: %s: input %q not bound", tab.Name, name)
		}
	}
	for i, name := range tab.Outputs {
		if i >= len(outputs) || outputs[i] == nil {
			return nil, fmt.Errorf("fsmsim: %s: output %q not bound", tab.Name, name)
		}
	}
	m := &Machine{tab: tab, clk: clk, inputs: inputs, outputs: outputs, current: tab.Initial}
	m.AssignID(hades.NextID())
	clk.Listen(m)
	m.driveOutputs(sim, true)
	return m, nil
}

// Name returns the FSM name.
func (m *Machine) Name() string { return m.tab.Name }

// Truth is true when status input i is defined and non-zero: the
// machine is the Env its guards read.
func (m *Machine) Truth(i int) bool {
	s := m.inputs[i]
	return s.Valid() && s.Uint() != 0
}

// Reset rewinds the machine for replay after a simulator reset: back to
// the initial state with the cycle counter, edge tracker and trace
// cleared, immediately driving the initial state's outputs exactly as
// New does at elaboration time.
func (m *Machine) Reset(sim *hades.Simulator) {
	m.current = m.tab.Initial
	m.cycles = 0
	m.prevClk = false
	m.trace = m.trace[:0]
	m.driveOutputs(sim, true)
}

// CurrentState returns the name of the state the machine is in.
func (m *Machine) CurrentState() string { return m.tab.States[m.current].Name }

// InFinal reports whether the machine reached a final state.
func (m *Machine) InFinal() bool { return m.tab.States[m.current].Final }

// Cycles returns the number of rising edges consumed.
func (m *Machine) Cycles() uint64 { return m.cycles }

// EnableTrace keeps the last n visited state names for debugging.
func (m *Machine) EnableTrace(n int) { m.keepLog = n }

// Trace returns the retained state visit log (oldest first).
func (m *Machine) Trace() []string { return m.trace }

// React advances the machine on rising clock edges: transition guards are
// evaluated against the pre-edge status values (Moore semantics under the
// kernel's delta model), then the new state's outputs are driven.
func (m *Machine) React(sim *hades.Simulator) {
	if !hades.RisingEdge(m.clk, &m.prevClk) {
		return
	}
	m.cycles++
	for _, tr := range m.tab.States[m.current].Next {
		if tr.Cond.Eval(m) {
			m.current = tr.To
			break
		}
	}
	if m.keepLog > 0 {
		m.trace = append(m.trace, m.tab.States[m.current].Name)
		if len(m.trace) > m.keepLog {
			m.trace = m.trace[1:]
		}
	}
	m.driveOutputs(sim, false)
}

// driveOutputs asserts the current state's Moore output vector; all
// declared outputs not assigned in the state are driven to 0.
func (m *Machine) driveOutputs(sim *hades.Simulator, immediate bool) {
	for k, val := range m.tab.States[m.current].Out {
		if immediate {
			sim.Drive(m.outputs[k], val)
		} else {
			sim.Set(m.outputs[k], val, 0)
		}
	}
}
