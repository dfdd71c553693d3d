// Package cycle compiles a datapath/FSM configuration into a levelized
// clock-by-clock evaluation program — the repository's first non-event
// execution engine. Where the hades kernel discovers evaluation order
// dynamically through delta cycles, this package fixes it at compile
// time: sequential elements (registers, RAM write ports, the FSM,
// stimuli, sinks) cut the signal graph, and the remaining combinational
// nodes are topologically sorted once. Each clock cycle then evaluates
// in two phases — sample every sequential element against the pre-edge
// slot values, publish, and settle the combinational network in level
// order — which reproduces the event kernel's signal values at every
// rising clock edge (the cross-engine property tests pin this) with no
// event queue at all.
//
// A compiled Program is immutable and can be instantiated for N lanes:
// gang simulation runs N independently seeded copies of the same
// configuration in lockstep, struct-of-arrays. Evaluation is node-major:
// each node resolves its kind, operand stripes and widths once and then
// loops over the lanes, so the per-node bookkeeping amortizes over the
// whole population and a clock edge allocates nothing.
package cycle

import (
	"fmt"
	"sort"

	"repro/internal/fsmsim"
	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/operators"
)

// Kernel names the compiled engine in run records and in the backend
// catalog, as hades.KernelTwoLevel names the event kernel.
const Kernel = "compiled"

// slotInfo describes one value slot — the compiled counterpart of a
// hades.Signal. The plan's slots come first, in plan order and under
// the plan's names ("op.port" producer endpoints, "ctl.<name>" control
// lines), then "gnd" when an input ties to ground, so traces from both
// engines compare row by row.
type slotInfo struct {
	name  string
	mask  uint64 // hades.Mask at the slot width
	shift uint   // sext(v, shift) is hades.SignExtend(v, width)
}

// widthMask and widthShift precompute hades.Mask and hades.SignExtend
// for one width, so the lane loops never branch on it.
func widthMask(width int) uint64 { return hades.Mask(^uint64(0), width) }

func widthShift(width int) uint {
	if width >= 64 {
		return 0
	}
	return uint(64 - width)
}

// sext sign-extends a value masked to 64-shift bits.
func sext(v uint64, shift uint) int64 { return int64(v<<shift) >> shift }

type combKind uint8

const (
	combUnary combKind = iota
	combBinary
	combMux
	combMemRead
)

// combNode is one combinational operator in topological order.
type combNode struct {
	kind     combKind
	width    int // operator word width passed to the fn
	y        int // output slot
	mask     uint64
	a, b     int  // unary/memread: a; binary: a and b
	ash, bsh uint // sign-extension shifts of a and b
	sel      int
	ins      []int
	un       operators.UnaryFn
	bin      operators.BinaryFn
	mem      int // combMemRead: memory index
}

// regNode is an edge-triggered register; en/rst are -1 when unconnected.
type regNode struct {
	id      string
	d, q    int
	en, rst int
	init    int64
}

// ramNode is a RAM's clocked port set; its read path is additionally a
// combMemRead node on the same dout slot.
type ramNode struct {
	id                  string
	mem                 int
	addr, din, we, dout int
}

// memSpec is the backing storage of one ram/rom instance. init is the
// elaboration-time contents (the operator's XML data): Reset falls back
// to it when the caller's init map has no entry for the id, exactly as
// the event elaboration reseeds components absent from a replay's init.
type memSpec struct {
	id    string
	ref   string // RTG shared memory, "" when local
	mask  uint64 // word width, as for slots
	shift uint
	depth int
	init  []int64
}

type stimNode struct {
	id        string
	out, last int
	init      []int64 // XML-baked vector, the Reset fallback
}

type sinkNode struct {
	id     string
	in, en int // en -1: sample every edge
}

// fsmState precomputes one state's Moore outputs over the declared
// output order (unassigned outputs are 0, as fsmsim drives them), each
// masked to its control slot.
type fsmState struct {
	name  string
	final bool
	outs  []uint64
	trans []fsmsim.Transition
}

type constSet struct {
	slot int
	val  int64
}

// Program is a compiled configuration: the slot table, the sequential
// element lists, the FSM transition tables and the combinational nodes
// in evaluation order. Programs are immutable and safe to share across
// instances and goroutines.
type Program struct {
	name  string
	slots []slotInfo
	gnd   int // -1 when no input needed tying

	consts []constSet
	comb   []combNode // topological order
	regs   []regNode
	rams   []ramNode
	mems   []memSpec
	stims  []stimNode
	sinks  []sinkNode

	states   []fsmState
	initial  int
	ctlSlots []int // per declared FSM output, in declaration order
	inSlots  []int // per declared FSM input: the status slot its guards read
	done     int   // ctl slot of the "done" output, -1 when undeclared

	// perCycle is every element's reaction count on one clock edge: each
	// register, RAM, stimulus, sink and comb node plus the FSM reacts
	// once per armed lane, so Run adds it in bulk.
	perCycle uint64
}

// Name returns the datapath name the program was compiled from.
func (p *Program) Name() string { return p.name }

// SlotNames returns every slot name in slot order — the key for
// cross-engine trace comparison.
func (p *Program) SlotNames() []string {
	out := make([]string, len(p.slots))
	for i, s := range p.slots {
		out[i] = s.name
	}
	return out
}

// Compile levelizes a resolved configuration: every operator kind the
// library declares lowers to its node, reading the word function its
// spec carries, and the FSM binds through the plan's state table.
func Compile(pl *netlist.Plan) (*Program, error) {
	p := &Program{name: pl.Name(), gnd: -1, done: pl.DoneSlot()}
	addSlot := func(name string, width int) int {
		p.slots = append(p.slots, slotInfo{name: name, mask: widthMask(width), shift: widthShift(width)})
		return len(p.slots) - 1
	}
	for _, s := range pl.Slots() {
		addSlot(s.Name, s.Width)
	}
	// in returns the slot an input reads: its driver, the ground slot,
	// or -1 when an open input is undriven.
	in := func(d netlist.Driver) int {
		switch {
		case d >= 0:
			return int(d)
		case d == netlist.Ground:
			if p.gnd < 0 {
				p.gnd = addSlot("gnd", 64)
			}
			return p.gnd
		}
		return -1
	}

	ops := pl.Ops()
	for i := range ops {
		op := &ops[i]
		param, pin := op.Params, op.Pin
		switch op.Spec.Kind {
		case operators.KindConst:
			p.consts = append(p.consts, constSet{slot: int(pin("y")), val: param.Value})

		case operators.KindUnary:
			a, y := in(pin("a")), int(pin("y"))
			p.comb = append(p.comb, combNode{
				kind: combUnary, width: opWidth(param), y: y, mask: p.slots[y].mask,
				a: a, ash: p.slots[a].shift, un: op.Spec.Unary,
			})

		case operators.KindBinary:
			a, b, y := in(pin("a")), in(pin("b")), int(pin("y"))
			p.comb = append(p.comb, combNode{
				kind: combBinary, width: opWidth(param), y: y, mask: p.slots[y].mask,
				a: a, b: b, ash: p.slots[a].shift, bsh: p.slots[b].shift, bin: op.Spec.Binary,
			})

		case operators.KindMux:
			n := operators.MuxInputs(param)
			y := int(pin("y"))
			node := combNode{kind: combMux, y: y, mask: p.slots[y].mask, sel: in(pin("sel"))}
			for _, d := range op.Pins[:n] { // in0..in<n-1>
				node.ins = append(node.ins, in(d))
			}
			p.comb = append(p.comb, node)

		case operators.KindReg:
			p.regs = append(p.regs, regNode{
				id: op.ID, d: in(pin("d")), q: int(pin("q")),
				en: in(pin("en")), rst: in(pin("rst")), init: param.Value,
			})

		case operators.KindRAM:
			mem, addr, dout := p.addMem(op, op.Ref), in(pin("addr")), int(pin("dout"))
			p.rams = append(p.rams, ramNode{id: op.ID, mem: mem, addr: addr, din: in(pin("din")), we: in(pin("we")), dout: dout})
			p.comb = append(p.comb, combNode{kind: combMemRead, a: addr, y: dout, mask: p.slots[dout].mask, mem: mem})

		case operators.KindROM:
			dout := int(pin("dout"))
			p.comb = append(p.comb, combNode{kind: combMemRead, a: in(pin("addr")), y: dout, mask: p.slots[dout].mask, mem: p.addMem(op, "")})

		case operators.KindStim:
			p.stims = append(p.stims, stimNode{id: op.ID, out: int(pin("out")), last: int(pin("last")), init: param.Init})

		case operators.KindSink:
			p.sinks = append(p.sinks, sinkNode{id: op.ID, in: in(pin("in")), en: in(pin("en"))})

		default:
			return nil, fmt.Errorf("cycle: %s: operator %q: type %q has no compiled model", p.name, op.ID, op.Spec.Type)
		}
	}

	// Bind the FSM: guards read the status slots, Moore outputs are
	// precomputed per state over the declared output order.
	tab := pl.FSM()
	for o := range tab.Outputs {
		p.ctlSlots = append(p.ctlSlots, pl.ControlSlot(o))
	}
	for i := range tab.Inputs {
		p.inSlots = append(p.inSlots, pl.StatusSlot(i))
	}
	for _, st := range tab.States {
		fs := fsmState{name: st.Name, final: st.Final, outs: make([]uint64, len(st.Out)), trans: st.Next}
		for o, v := range st.Out {
			fs.outs[o] = uint64(v) & p.slots[p.ctlSlots[o]].mask
		}
		p.states = append(p.states, fs)
	}
	p.initial = tab.Initial
	p.perCycle = uint64(len(p.regs) + 1 + len(p.rams) + len(p.stims) + len(p.sinks) + len(p.comb))

	if err := p.levelize(); err != nil {
		return nil, err
	}
	return p, nil
}

func opWidth(p operators.Params) int {
	if p.Width <= 0 {
		return 32
	}
	return p.Width
}

// addMem appends a RAM/ROM's backing storage, returning its index; ref
// is the shared memory a RAM writes back to.
func (p *Program) addMem(op *netlist.Op, ref string) int {
	w := opWidth(op.Params)
	p.mems = append(p.mems, memSpec{id: op.ID, ref: ref, mask: widthMask(w), shift: widthShift(w),
		depth: op.Params.Depth, init: op.Params.Init})
	return len(p.mems) - 1
}

// levelize topologically sorts the combinational nodes (Kahn's
// algorithm, FIFO seeded in node order for determinism). Sequential
// elements publish into slots no comb node produces, so they never
// appear as edges; a leftover node means combinational feedback, which
// the event kernel would also reject (ErrMaxDeltas) — here it is a
// compile error.
func (p *Program) levelize() error {
	prodBy := map[int]int{} // slot -> producing comb node
	for i := range p.comb {
		prodBy[p.comb[i].y] = i
	}
	nodeInputs := func(n *combNode) []int {
		switch n.kind {
		case combUnary, combMemRead:
			return []int{n.a}
		case combBinary:
			return []int{n.a, n.b}
		default: // combMux
			return append(append([]int(nil), n.ins...), n.sel)
		}
	}
	indeg := make([]int, len(p.comb))
	succs := make([][]int, len(p.comb))
	for i := range p.comb {
		for _, s := range nodeInputs(&p.comb[i]) {
			if j, ok := prodBy[s]; ok {
				succs[j] = append(succs[j], i)
				indeg[i]++
			}
		}
	}
	queue := make([]int, 0, len(p.comb))
	for i := range p.comb {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	order := make([]combNode, 0, len(p.comb))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		order = append(order, p.comb[i])
		for _, j := range succs[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(order) < len(p.comb) {
		var loop []string
		for i := range p.comb {
			if indeg[i] > 0 {
				loop = append(loop, p.slots[p.comb[i].y].name)
			}
		}
		sort.Strings(loop)
		return fmt.Errorf("cycle: %s: combinational loop through %v", p.name, loop)
	}
	p.comb = order
	return nil
}
