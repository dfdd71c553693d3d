package netlist

import (
	"fmt"

	"repro/internal/fsmsim"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// library resolves operator types for every plan; it is never mutated.
var library = operators.DefaultRegistry()

// Driver is what feeds one operator port in a Plan: a slot index (>= 0)
// or one of the constants below.
type Driver int32

// Port drivers that are not slots.
const (
	Open   Driver = -1 // an optional input no one drives (operators.Open)
	Clock  Driver = -2 // the configuration clock
	Ground Driver = -3 // constant zero (operators.Ground)
)

// Slot is one value the configuration carries: an operator output,
// named "op.port", or an FSM output, named "ctl.<name>". The event
// elaboration builds one signal per slot and the cycle compiler one
// value plane, both in slot order, so traces compare row by row.
type Slot struct {
	Name  string
	Width int
	sig   string // the event signal's name: "<datapath>." + Name
}

// Op is one resolved operator instance.
type Op struct {
	ID     string
	Spec   *operators.Spec
	Params operators.Params // Init stays nil: contents are seeded per elaboration
	Ref    string           // RTG shared memory a ram is bound to, "" when local
	Ports  []operators.PortSpec
	Pins   []Driver // per port in Ports order: an output's own slot, an input's driver
}

// Pin returns the driver of the named port, or Open when the operator
// has no such port.
func (op *Op) Pin(port string) Driver {
	for i := range op.Ports {
		if op.Ports[i].Name == port {
			return op.Pins[i]
		}
	}
	return Open
}

// Plan is one configuration's datapath and FSM resolved once: every
// output and control slot, each operator with its parameters and the
// driver of each port, the status slot each FSM input reads, and the
// FSM's state table. Both engines build from a plan alone — Elaborate
// wires it on a hades kernel, cycle.Compile levelizes it — so they
// cannot wire one design two ways. A Plan is immutable; only Resolve
// makes one.
type Plan struct {
	name     string
	slots    []Slot
	ops      []Op
	controls int   // slots[controls:] are the FSM outputs, in declaration order
	statuses []int // per FSM input, the slot its status aliases
	done     int   // slot of the "done" output, -1 when undeclared
	fsm      *fsmsim.Table
}

// Resolve binds a datapath to its FSM. The pair must have passed
// xmlspec validation, which rtg.NewController runs once per design;
// Resolve checks what validation leaves to the binding — every control
// has an FSM output, every FSM input a datapath status, every input
// that must be driven a driver, every memory a depth in [1,
// operators.MaxDepth], every guard a declared input — and reports a
// name it cannot resolve as an error.
func Resolve(dp *xmlspec.Datapath, fsm *xmlspec.FSM) (*Plan, error) {
	p := &Plan{name: dp.Name, done: -1}
	// addSlot takes the event signal's name, "<datapath>.<slot name>",
	// and keeps its suffix, which shares the string, as the slot name.
	addSlot := func(sig string, width int) Driver {
		p.slots = append(p.slots, Slot{Name: sig[len(dp.Name)+1:], Width: width, sig: sig})
		return Driver(len(p.slots) - 1)
	}

	// One slot per operator output port. All operators' pins share one
	// array.
	p.ops = make([]Op, len(dp.Operators))
	npins := 0
	for i := range dp.Operators {
		xop := &dp.Operators[i]
		spec, ok := library.Lookup(xop.Type)
		if !ok {
			return nil, p.errorf("operator %q has unknown type %q", xop.ID, xop.Type)
		}
		op := &p.ops[i]
		op.ID, op.Spec, op.Ref = xop.ID, spec, xop.Ref
		op.Params = xmlspec.ParamsOf(xop, dp.Width)
		op.Ports = spec.Ports(op.Params)
		npins += len(op.Ports)
	}
	pins := make([]Driver, npins)
	slotOf := map[string]Driver{} // "op.port" -> slot
	for i := range p.ops {
		op := &p.ops[i]
		op.Pins, pins = pins[:len(op.Ports):len(op.Ports)], pins[len(op.Ports):]
		for j, ps := range op.Ports {
			if ps.Dir == operators.Out {
				op.Pins[j] = addSlot(dp.Name+"."+op.ID+"."+ps.Name, ps.Width)
				slotOf[p.slots[op.Pins[j]].Name] = op.Pins[j]
			}
		}
	}

	// One slot per FSM output, widened to the datapath's declared
	// control width when that is larger; outputs without datapath
	// targets (done) get slots too.
	ctlWidth := map[string]int{}
	for _, c := range dp.Controls {
		ctlWidth[c.Name] = c.ControlWidth()
	}
	p.controls = len(p.slots)
	ctlSlot := map[string]Driver{}
	for _, out := range fsm.Outputs {
		w := out.SignalWidth()
		if dw, ok := ctlWidth[out.Name]; ok && dw > w {
			w = dw
		}
		ctlSlot[out.Name] = addSlot(dp.Name+".ctl."+out.Name, w)
	}
	for _, c := range dp.Controls {
		if _, ok := ctlSlot[c.Name]; !ok {
			return nil, p.errorf("control %q has no FSM output", c.Name)
		}
	}

	// Drivers of input endpoints: connections, then control targets.
	drive := map[string]Driver{}
	for _, cn := range dp.Connections {
		src, ok := slotOf[cn.From]
		if !ok {
			return nil, p.errorf("connect from unknown output %q", cn.From)
		}
		drive[cn.To] = src
	}
	for _, c := range dp.Controls {
		for _, to := range c.Targets {
			drive[to.Port] = ctlSlot[c.Name]
		}
	}

	// Status lines alias operator outputs.
	status := map[string]int{}
	for _, st := range dp.Statuses {
		src, ok := slotOf[st.From]
		if !ok {
			return nil, p.errorf("status %q from unknown output %q", st.Name, st.From)
		}
		status[st.Name] = int(src)
	}

	// Each input port's driver, as its operator declares it.
	for i := range p.ops {
		op := &p.ops[i]
		if k := op.Spec.Kind; (k == operators.KindRAM || k == operators.KindROM) &&
			(op.Params.Depth <= 0 || op.Params.Depth > operators.MaxDepth) {
			return nil, p.errorf("%s %q needs a depth in [1, %d], has %d",
				op.Spec.Type, op.ID, operators.MaxDepth, op.Params.Depth)
		}
		for j, ps := range op.Ports {
			if ps.Dir == operators.Out {
				continue
			}
			d, driven := drive[op.ID+"."+ps.Name]
			switch {
			case ps.Bind == operators.Clock:
				op.Pins[j] = Clock
			case driven:
				op.Pins[j] = d
			case ps.Bind == operators.Ground:
				op.Pins[j] = Ground
			case ps.Bind == operators.Open:
				op.Pins[j] = Open
			default:
				return nil, p.errorf("instance %q: port %q not connected", op.ID, ps.Name)
			}
		}
	}

	// Bind the FSM.
	for _, in := range fsm.Inputs {
		s, ok := status[in.Name]
		if !ok {
			return nil, p.errorf("FSM input %q has no datapath status", in.Name)
		}
		p.statuses = append(p.statuses, s)
	}
	tab, err := fsmsim.NewTable(fsm)
	if err != nil {
		return nil, err
	}
	p.fsm = tab
	if d, ok := ctlSlot["done"]; ok {
		p.done = int(d)
	}
	return p, nil
}

func (p *Plan) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("netlist: %s: "+format, append([]interface{}{p.name}, args...)...)
}

// Name returns the datapath name.
func (p *Plan) Name() string { return p.name }

// Slots returns every slot in slot order. The slice is shared: read it,
// do not modify it.
func (p *Plan) Slots() []Slot { return p.slots }

// Ops returns the operators in datapath order. The slice is shared:
// read it, do not modify it.
func (p *Plan) Ops() []Op { return p.ops }

// FSM returns the resolved control unit.
func (p *Plan) FSM() *fsmsim.Table { return p.fsm }

// ControlSlot returns the slot of FSM output o (declaration order).
func (p *Plan) ControlSlot(o int) int { return p.controls + o }

// StatusSlot returns the slot FSM input i reads.
func (p *Plan) StatusSlot(i int) int { return p.statuses[i] }

// DoneSlot returns the slot of the "done" output, -1 when undeclared.
func (p *Plan) DoneSlot() int { return p.done }
