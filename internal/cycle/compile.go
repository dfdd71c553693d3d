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
// event queue at all. Settling evaluates only the nodes with a changed
// input: a slot that changes marks the nodes reading it, and one sweep
// over the marks in level order reaches the fixpoint.
//
// A compiled Program is immutable and can be instantiated for N lanes:
// gang simulation runs N independently seeded copies of the same
// configuration in lockstep, struct-of-arrays. Evaluation is node-major:
// each node resolves its kind, operand stripes and widths once and then
// loops over the lanes, so the per-node bookkeeping amortizes over the
// whole population and a clock edge allocates nothing.
package cycle

import (
	"errors"
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

// ErrCombinationalLoop is wrapped by the error Compile returns when the
// combinational nodes feed each other in a cycle; the error names the
// slots on the loop.
var ErrCombinationalLoop = errors.New("combinational loop")

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

// reads appends the slots a node reads to buf: a mux's inputs, then its
// select. A node reading one slot twice lists it twice.
func (n *combNode) reads(buf []int) []int {
	switch n.kind {
	case combUnary, combMemRead:
		return append(buf, n.a)
	case combBinary:
		return append(buf, n.a, n.b)
	}
	return append(append(buf, n.ins...), n.sel)
}

// regNode is an edge-triggered register; en/rst are -1 when unconnected.
type regNode struct {
	id      string
	d, q    int
	en, rst int
	init    int64
}

// ramNode is a RAM's clocked port set; its read path is additionally a
// combMemRead node on the same dout slot, comb[rd].
type ramNode struct {
	id                  string
	mem                 int
	addr, din, we, dout int
	rd                  int32
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

// fsmState is one state of the bound FSM; its transition k is
// transition tr0+k of the program's flat per-transition tables.
type fsmState struct {
	name  string
	final bool
	trans []fsmsim.Transition
	tr0   int32
}

type constSet struct {
	slot int
	val  int64
}

// ctlPut is one control output a transition changes: its slot and the
// target state's value, masked to the slot width.
type ctlPut struct {
	slot int
	val  uint64
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

	// readAt/readers index the comb nodes reading each slot, by
	// position in comb: slot s is read by readers[readAt[s]:readAt[s+1]].
	readAt  []int32
	readers []int32

	states   []fsmState
	initial  int
	initOuts []uint64 // the initial state's Moore outputs, per ctlSlots entry
	ctlSlots []int    // per declared FSM output, in declaration order
	inSlots  []int    // per declared FSM input: the status slot its guards read
	done     int      // ctl slot of the "done" output, -1 when undeclared
	// Transition t changes the outputs ctlDiff[diffAt[t]:diffAt[t+1]],
	// those whose value differs between its source and target states.
	ctlDiff []ctlPut
	diffAt  []int32

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
	ops := pl.Ops()
	p := &Program{name: pl.Name(), gnd: -1, done: pl.DoneSlot(),
		slots: make([]slotInfo, 0, len(pl.Slots())+1), comb: make([]combNode, 0, len(ops))}
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
			p.rams = append(p.rams, ramNode{id: op.ID, mem: mem, addr: addr, din: in(pin("din")), we: in(pin("we")), dout: dout,
				rd: int32(len(p.comb))})
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

	// Bind the FSM: guards read the status slots; Reset drives the
	// initial state's Moore outputs (declared order, unassigned ones 0 as
	// fsmsim drives them), and each transition publishes only the
	// outputs its target state drives to a different value.
	tab := pl.FSM()
	p.ctlSlots = make([]int, len(tab.Outputs))
	for o := range p.ctlSlots {
		p.ctlSlots[o] = pl.ControlSlot(o)
	}
	p.inSlots = make([]int, len(tab.Inputs))
	for i := range p.inSlots {
		p.inSlots[i] = pl.StatusSlot(i)
	}
	out := func(st *fsmsim.State, o int) uint64 { return uint64(st.Out[o]) & p.slots[p.ctlSlots[o]].mask }
	p.initial = tab.Initial
	p.initOuts = make([]uint64, len(tab.Outputs))
	for o := range p.initOuts {
		p.initOuts[o] = out(&tab.States[tab.Initial], o)
	}
	p.states = make([]fsmState, len(tab.States))
	nt := 0
	for s := range tab.States {
		nt += len(tab.States[s].Next)
	}
	p.diffAt = make([]int32, 1, nt+1)
	for s := range tab.States {
		st := &tab.States[s]
		p.states[s] = fsmState{name: st.Name, final: st.Final, trans: st.Next, tr0: int32(len(p.diffAt) - 1)}
		for _, tr := range st.Next {
			for o := range p.ctlSlots {
				if v := out(&tab.States[tr.To], o); v != out(st, o) {
					p.ctlDiff = append(p.ctlDiff, ctlPut{slot: p.ctlSlots[o], val: v})
				}
			}
			p.diffAt = append(p.diffAt, int32(len(p.ctlDiff)))
		}
	}
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
// algorithm, FIFO seeded in node order for determinism) and builds the
// reader index the dirty sweep marks through. Sequential elements
// publish into slots no comb node produces, so they never appear as
// edges; a leftover node means combinational feedback, which the event
// kernel would also reject (ErrMaxDeltas) — here it is a compile error.
func (p *Program) levelize() error {
	// Reader index in CSR form: count each slot's readers, turn the
	// counts into end offsets, then place the entries walking the nodes
	// backwards, so each slot lists its readers in node order and every
	// offset ends at its slot's start. A node reading a slot twice is
	// listed twice and so counts two in-degrees.
	readAt := make([]int32, len(p.slots)+1)
	var buf []int
	for i := range p.comb {
		buf = p.comb[i].reads(buf[:0])
		for _, s := range buf {
			readAt[s]++
		}
	}
	for s := 1; s < len(readAt); s++ {
		readAt[s] += readAt[s-1]
	}
	readers := make([]int32, readAt[len(readAt)-1])
	for i := len(p.comb) - 1; i >= 0; i-- {
		buf = p.comb[i].reads(buf[:0])
		for k := len(buf) - 1; k >= 0; k-- {
			readAt[buf[k]]--
			readers[readAt[buf[k]]] = int32(i)
		}
	}
	succs := func(i int32) []int32 {
		y := p.comb[i].y
		return readers[readAt[y]:readAt[y+1]]
	}

	indeg := make([]int32, len(p.comb))
	for i := range p.comb {
		for _, r := range succs(int32(i)) {
			indeg[r]++
		}
	}
	order := make([]int32, 0, len(p.comb)) // the FIFO queue, never popped
	for i, d := range indeg {
		if d == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, r := range succs(order[head]) {
			if indeg[r]--; indeg[r] == 0 {
				order = append(order, r)
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
		return fmt.Errorf("cycle: %s: %w through %v", p.name, ErrCombinationalLoop, loop)
	}

	// Renumber to topological positions; every in-degree is zero now, so
	// indeg holds each node's position.
	pos, sorted := indeg, make([]combNode, len(p.comb))
	for k, i := range order {
		pos[i], sorted[k] = int32(k), p.comb[i]
	}
	for e, r := range readers {
		readers[e] = pos[r]
	}
	for m := range p.rams {
		p.rams[m].rd = pos[p.rams[m].rd]
	}
	p.comb, p.readAt, p.readers = sorted, readAt, readers
	return nil
}
