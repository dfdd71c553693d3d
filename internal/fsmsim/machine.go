package fsmsim

import (
	"fmt"

	"repro/internal/hades"
	"repro/internal/xmlspec"
)

// Machine is the executable form of an fsm.xml control unit: a Moore
// machine clocked by the global clock, reading status signals and driving
// control signals. It is the direct counterpart of the fsm.java classes
// the paper's XSLT generates for Hades.
type Machine struct {
	hades.IDBase
	name string

	clk *hades.Signal
	rst *hades.Signal // optional

	states  []compiledState
	byName  map[string]int
	current int
	initial int

	inputs  map[string]*hades.Signal
	outputs []*hades.Signal // bound outputs, in spec order

	prevClk bool
	cycles  uint64
	trace   []string
	keepLog int
}

type compiledState struct {
	name        string
	final       bool
	outputs     []int64 // Moore output vector, parallel to Machine.outputs
	transitions []compiledTransition
}

type compiledTransition struct {
	cond Cond
	next int
}

// signalEnv adapts live status signals to the Cond Env interface.
type signalEnv map[string]*hades.Signal

// Truth is true when the named status signal is defined and non-zero.
func (e signalEnv) Truth(name string) bool {
	s, ok := e[name]
	return ok && s.Valid() && s.Uint() != 0
}

// New compiles an FSM description and binds it to live signals. inputs
// must provide a signal per declared FSM input; outputs per declared
// output. The machine starts in the initial state and drives that state's
// outputs at elaboration time.
func New(sim *hades.Simulator, spec *xmlspec.FSM, clk, rst *hades.Signal,
	inputs, outputs map[string]*hades.Signal) (*Machine, error) {

	if err := xmlspec.ValidateFSM(spec); err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, in := range spec.Inputs {
		if inputs[in.Name] == nil {
			return nil, fmt.Errorf("fsmsim: %s: input %q not bound", spec.Name, in.Name)
		}
		known[in.Name] = true
	}
	m := &Machine{
		name:    spec.Name,
		clk:     clk,
		rst:     rst,
		byName:  map[string]int{},
		inputs:  map[string]*hades.Signal{},
		keepLog: 0,
	}
	m.AssignID(hades.NextID())
	for name, sig := range inputs {
		m.inputs[name] = sig
	}
	for i, st := range spec.States {
		m.byName[st.Name] = i
	}
	for _, st := range spec.States {
		cs := compiledState{name: st.Name, final: st.Final}
		for _, tr := range st.Transitions {
			c, err := ParseCond(tr.Cond, known)
			if err != nil {
				return nil, fmt.Errorf("fsmsim: %s state %s: %w", spec.Name, st.Name, err)
			}
			cs.transitions = append(cs.transitions, compiledTransition{cond: c, next: m.byName[tr.Next]})
		}
		m.states = append(m.states, cs)
		if st.Initial {
			m.initial = len(m.states) - 1
		}
	}
	for _, out := range spec.Outputs {
		sig := outputs[out.Name]
		if sig == nil {
			return nil, fmt.Errorf("fsmsim: %s: output %q not bound", spec.Name, out.Name)
		}
		m.outputs = append(m.outputs, sig)
	}
	// Each state's output vector holds the value of its first assign to
	// each output, 0 where it assigns none; all states share one array.
	vecs := make([]int64, len(m.states)*len(m.outputs))
	for i, st := range spec.States {
		vec := vecs[i*len(m.outputs) : (i+1)*len(m.outputs)]
		for k, out := range spec.Outputs {
			for _, a := range st.Assigns {
				if a.Signal == out.Name {
					vec[k] = a.Value
					break
				}
			}
		}
		m.states[i].outputs = vec
	}
	m.current = m.initial
	clk.Listen(m)
	m.driveOutputs(sim, true)
	return m, nil
}

// Name returns the FSM name.
func (m *Machine) Name() string { return m.name }

// Reset rewinds the machine for replay after a simulator reset: back to
// the initial state with the cycle counter, edge tracker and trace
// cleared, immediately driving the initial state's outputs exactly as
// New does at elaboration time.
func (m *Machine) Reset(sim *hades.Simulator) {
	m.current = m.initial
	m.cycles = 0
	m.prevClk = false
	m.trace = m.trace[:0]
	m.driveOutputs(sim, true)
}

// CurrentState returns the name of the state the machine is in.
func (m *Machine) CurrentState() string { return m.states[m.current].name }

// InFinal reports whether the machine reached a final state.
func (m *Machine) InFinal() bool { return m.states[m.current].final }

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
	if m.rst != nil && m.rst.Bool() {
		m.current = m.initial
		m.driveOutputs(sim, false)
		return
	}
	st := &m.states[m.current]
	env := signalEnv(m.inputs)
	for _, tr := range st.transitions {
		if tr.cond.Eval(env) {
			m.current = tr.next
			break
		}
	}
	if m.keepLog > 0 {
		m.trace = append(m.trace, m.states[m.current].name)
		if len(m.trace) > m.keepLog {
			m.trace = m.trace[1:]
		}
	}
	m.driveOutputs(sim, false)
}

// driveOutputs asserts the current state's Moore output vector; all
// declared outputs not assigned in the state are driven to 0.
func (m *Machine) driveOutputs(sim *hades.Simulator, immediate bool) {
	for k, val := range m.states[m.current].outputs {
		if immediate {
			sim.Drive(m.outputs[k], val)
		} else {
			sim.Set(m.outputs[k], val, 0)
		}
	}
}
