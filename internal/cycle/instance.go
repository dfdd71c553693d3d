package cycle

import (
	"fmt"
	"math/bits"

	"repro/internal/hades"
)

// Sample is one traced slot observation: the raw masked value and its
// definedness, exactly what a hades.Signal holds pre-edge.
type Sample struct {
	Val   uint64
	Valid bool
}

// Instance is runnable per-lane state of a compiled Program. All value
// state is struct-of-arrays indexed slot-major (slot*lanes+lane), so a
// gang of lanes evaluates each node over a contiguous stripe. An
// Instance is not safe for concurrent use; the controller serializes.
type Instance struct {
	p     *Program
	lanes int

	vals  []uint64 // slot-major value planes
	valid []bool

	mems    [][]uint64 // per memSpec, lane-major: mem[lane*depth+addr]
	stimVec [][]int64  // per (stim, lane): private copy of the vector
	stimPos []int
	sinkRec [][]int64 // per (sink, lane)

	state     []int
	fired     []int32 // 1 + the transition phaseA took, 0 for none
	cycles    []uint64
	endTime   []hades.Time
	completed []bool
	armed     []bool
	doneWas   []bool // pre-publish done level, for transition detection

	// per-run counters (rewound by Reset) and the lifetime reset count,
	// mirroring the hades.Stats split.
	events    []uint64
	reactions []uint64
	instants  []uint64
	resets    []uint64

	// Deferred-publication scratch: phase A samples against pre-edge
	// slot values and parks results here; publish() then applies them,
	// which is what makes register chains and RAM read-after-write match
	// the event kernel's next-delta Set semantics.
	regNext     []int64
	regSet      []bool
	ramNext     []int64
	ramSet      []bool
	stimOut     []int64
	stimOutSet  []bool
	stimLast    []int64
	stimLastSet []bool

	// dirty holds the comb nodes with a changed input on any lane, by
	// position in p.comb; settle empties it.
	dirty nodeSet

	env *laneEnv // the FSM guards' Env, pointed at one lane at a time

	traceOn bool
	traces  [][][]Sample // per lane, per cycle: one Sample per slot
}

// NewInstance allocates state for the given lane count (minimum 1).
func (p *Program) NewInstance(lanes int) *Instance {
	if lanes < 1 {
		lanes = 1
	}
	in := &Instance{p: p, lanes: lanes}
	n := len(p.slots) * lanes
	in.vals = make([]uint64, n)
	in.valid = make([]bool, n)
	in.mems = make([][]uint64, len(p.mems))
	for m := range p.mems {
		in.mems[m] = make([]uint64, p.mems[m].depth*lanes)
	}
	in.stimVec = make([][]int64, len(p.stims)*lanes)
	in.stimPos = make([]int, len(p.stims)*lanes)
	in.sinkRec = make([][]int64, len(p.sinks)*lanes)
	in.state = make([]int, lanes)
	in.fired = make([]int32, lanes)
	in.cycles = make([]uint64, lanes)
	in.endTime = make([]hades.Time, lanes)
	in.completed = make([]bool, lanes)
	in.armed = make([]bool, lanes)
	in.doneWas = make([]bool, lanes)
	in.events = make([]uint64, lanes)
	in.reactions = make([]uint64, lanes)
	in.instants = make([]uint64, lanes)
	in.resets = make([]uint64, lanes)
	in.regNext = make([]int64, len(p.regs)*lanes)
	in.regSet = make([]bool, len(p.regs)*lanes)
	in.ramNext = make([]int64, len(p.rams)*lanes)
	in.ramSet = make([]bool, len(p.rams)*lanes)
	in.stimOut = make([]int64, len(p.stims)*lanes)
	in.stimOutSet = make([]bool, len(p.stims)*lanes)
	in.stimLast = make([]int64, len(p.stims)*lanes)
	in.stimLastSet = make([]bool, len(p.stims)*lanes)
	in.dirty = make(nodeSet, (len(p.comb)+63)/64)
	in.env = &laneEnv{in: in}
	in.traces = make([][][]Sample, lanes)
	return in
}

// EnableTrace records every slot's pre-edge value each cycle, the
// cycle-engine side of the cross-engine clock-edge trace comparison.
func (in *Instance) EnableTrace() { in.traceOn = true }

// TraceRows returns a lane's recorded trace: one row per executed
// cycle, indexed by slot (see Program.SlotNames). Rows are live until
// the lane's next Reset.
func (in *Instance) TraceRows(lane int) [][]Sample { return in.traces[lane] }

// set publishes a value into a slot, masked to the slot width; a change
// of value or definedness counts one event, like the kernel's batch
// apply. Only Reset calls it, and Reset settles every node.
func (in *Instance) set(slot, lane int, v int64) {
	put(in.vals, in.valid, in.events, slot*in.lanes+lane, lane, uint64(v)&in.p.slots[slot].mask)
}

// put stores the masked value m at plane index i, which belongs to lane
// l, counting an event for the lane on a change of value or definedness.
// It reports the change, after which the caller marks the slot's
// readers once for all its lanes.
func put(vals []uint64, valid []bool, events []uint64, i, l int, m uint64) bool {
	if valid[i] && vals[i] == m {
		return false
	}
	vals[i], valid[i] = m, true
	events[l]++
	return true
}

// nodeSet is a bitset over a program's comb nodes in topological order.
type nodeSet []uint64

func (s nodeSet) add(i int32) { s[i>>6] |= 1 << (i & 63) }

// mark adds the comb nodes reading a slot to the dirty set.
func (in *Instance) mark(slot int) {
	p := in.p
	for _, r := range p.readers[p.readAt[slot]:p.readAt[slot+1]] {
		in.dirty.add(r)
	}
}

// laneEnv adapts one lane's status slots to the fsmsim guard Env. The
// Instance holds a single one and phaseA points it at each lane in turn,
// so handing it to Cond.Eval allocates nothing.
type laneEnv struct {
	in   *Instance
	lane int
}

// Truth is true when status input i is defined and non-zero.
func (e *laneEnv) Truth(i int) bool {
	j := e.in.p.inSlots[i]*e.in.lanes + e.lane
	return e.in.valid[j] && e.in.vals[j] != 0
}

// Reset rewinds one lane to the program's initial state and arms it:
// slots undefined, ground and constants driven, registers at their
// power-on values, the FSM in its initial state with that state's
// outputs asserted, memories and stimuli reseeded from init (keyed by
// operator id; missing ids zero-fill), sinks cleared — then one
// combinational settle pass over every node, the compiled counterpart of
// the event kernel's time-zero delta cascade. init contents are copied.
func (in *Instance) Reset(lane int, init map[string][]int64) {
	L := in.lanes
	in.resets[lane]++
	// The settle pass below is one reaction per comb node.
	in.events[lane], in.reactions[lane], in.instants[lane] = 0, uint64(len(in.p.comb)), 0
	for s := range in.p.slots {
		i := s*L + lane
		in.vals[i], in.valid[i] = 0, false
	}
	if in.p.gnd >= 0 {
		in.valid[in.p.gnd*L+lane] = true
	}
	for _, cs := range in.p.consts {
		in.set(cs.slot, lane, cs.val)
	}
	for r := range in.p.regs {
		in.set(in.p.regs[r].q, lane, in.p.regs[r].init)
		in.regSet[r*L+lane] = false
	}
	in.state[lane] = in.p.initial
	for o, slot := range in.p.ctlSlots {
		put(in.vals, in.valid, in.events, slot*L+lane, lane, in.p.initOuts[o])
	}
	for m := range in.p.mems {
		ms := &in.p.mems[m]
		mem := in.mems[m][lane*ms.depth : (lane+1)*ms.depth]
		words, ok := init[ms.id]
		if !ok {
			words = ms.init
		}
		for i := range mem {
			if i < len(words) {
				mem[i] = uint64(words[i]) & ms.mask
			} else {
				mem[i] = 0
			}
		}
	}
	for m := range in.p.rams {
		in.ramSet[m*L+lane] = false
	}
	for s := range in.p.stims {
		i := s*L + lane
		src, ok := init[in.p.stims[s].id]
		if !ok {
			src = in.p.stims[s].init
		}
		vec := in.stimVec[i]
		if cap(vec) < len(src) {
			vec = make([]int64, len(src))
		}
		vec = vec[:len(src)]
		copy(vec, src)
		in.stimVec[i] = vec
		in.stimPos[i] = 0
		in.stimOutSet[i], in.stimLastSet[i] = false, false
	}
	for s := range in.p.sinks {
		i := s*L + lane
		in.sinkRec[i] = in.sinkRec[i][:0]
	}
	in.cycles[lane], in.endTime[lane], in.completed[lane] = 0, 0, false
	in.armed[lane] = true
	if in.traceOn {
		in.traces[lane] = in.traces[lane][:0]
	}
	// Run returns only at the top of an edge, after its settle emptied
	// the dirty set, so no other lane has a node pending here: marking
	// every node and sweeping this lane alone leaves the set empty again.
	for w := range in.dirty {
		in.dirty[w] = ^uint64(0)
	}
	if r := len(in.p.comb) & 63; r != 0 {
		in.dirty[len(in.dirty)-1] = 1<<r - 1
	}
	in.settle(lane, lane+1)
}

// Run executes every armed lane clock-by-clock. The horizon mirrors the
// event kernel's clock arithmetic exactly: with half = period/2, rising
// edge k falls at (2k-1)*half, and edges run while that stays within
// maxCycles*period — so cycle counts and end times agree with a
// hades.Clock for every period, odd ones included. A lane completes
// when its done control transitions to 1 (the watchdog condition) and
// is disarmed; at the horizon the remaining lanes complete if their FSM
// sits in a final state or holds done high.
func (in *Instance) Run(period hades.Time, maxCycles uint64, interrupt func() bool) error {
	if period < 2 {
		return fmt.Errorf("cycle: clock period must be at least 2 ticks")
	}
	half := period / 2
	limit := hades.Time(maxCycles) * period
	edges := uint64((limit/half + 1) / 2)
	capEnd := (limit / half) * half
	for cyc := uint64(1); cyc <= edges; cyc++ {
		any := false
		for l := 0; l < in.lanes; l++ {
			if in.armed[l] {
				any = true
				break
			}
		}
		if !any {
			return nil
		}
		if interrupt != nil && interrupt() {
			return hades.ErrInterrupted
		}
		if in.traceOn {
			in.snapshot()
		}
		in.phaseA()
		// Completion is the *transition* of done to 1: the event kernel's
		// watchdog only reacts to a change, so a done held high from the
		// initial state never trips it — capture the pre-publish level.
		if in.p.done >= 0 {
			for l := 0; l < in.lanes; l++ {
				in.doneWas[l] = in.doneLevel(l)
			}
		}
		in.publish()
		in.settle(0, in.lanes)
		for l := 0; l < in.lanes; l++ {
			if !in.armed[l] {
				continue
			}
			in.cycles[l] = cyc
			in.instants[l]++
			in.reactions[l] += in.p.perCycle
			if in.p.done >= 0 && !in.doneWas[l] && in.doneLevel(l) {
				in.completed[l] = true
				in.endTime[l] = hades.Time(2*(cyc-1))*half + half
				in.armed[l] = false
			}
		}
	}
	for l := 0; l < in.lanes; l++ {
		if !in.armed[l] {
			continue
		}
		in.endTime[l] = capEnd
		in.completed[l] = in.p.states[in.state[l]].final || in.doneLevel(l)
		in.armed[l] = false
	}
	return nil
}

// doneLevel reports whether a lane's done control is defined and holds 1.
func (in *Instance) doneLevel(l int) bool {
	if in.p.done < 0 {
		return false
	}
	i := in.p.done*in.lanes + l
	return in.valid[i] && in.vals[i]&1 == 1
}

// snapshot records every armed lane's pre-edge slot values.
func (in *Instance) snapshot() {
	for l := 0; l < in.lanes; l++ {
		if !in.armed[l] {
			continue
		}
		row := make([]Sample, len(in.p.slots))
		for s := range in.p.slots {
			i := s*in.lanes + l
			row[s] = Sample{Val: in.vals[i], Valid: in.valid[i]}
		}
		in.traces[l] = append(in.traces[l], row)
	}
}

// phaseA evaluates every sequential element against the pre-edge slot
// values: register sampling, FSM transition, RAM write + read-port
// refresh, stimulus advance and sink capture. Nothing publishes here —
// results park in the deferred scratch so every element of the same
// edge observes the same pre-edge state, exactly like the event
// kernel's delta-0 reactions. Like settle it runs element-major over
// the armed lanes; reactions are counted in bulk by Run.
func (in *Instance) phaseA() {
	p, L, armed := in.p, in.lanes, in.armed
	vals, valid := in.vals, in.valid
	for r := range p.regs {
		rg := &p.regs[r]
		o, d, rst, en := r*L, rg.d*L, rg.rst*L, rg.en*L
		dsh := p.slots[rg.d].shift
		for l, on := range armed {
			switch {
			case !on:
			case rg.rst >= 0 && vals[rst+l]&1 == 1:
				in.regNext[o+l], in.regSet[o+l] = rg.init, true
			case rg.en >= 0 && vals[en+l]&1 == 0:
			case valid[d+l]:
				in.regNext[o+l], in.regSet[o+l] = sext(vals[d+l], dsh), true
			}
		}
	}
	env := in.env
	for l, on := range armed {
		if !on {
			continue
		}
		env.lane = l
		st := &p.states[in.state[l]]
		for k, tr := range st.trans {
			if tr.Cond.Eval(env) {
				in.state[l], in.fired[l] = tr.To, st.tr0+int32(k)+1
				break
			}
		}
	}
	for m := range p.rams {
		rn := &p.rams[m]
		ms := &p.mems[rn.mem]
		mem, depth := in.mems[rn.mem], uint64(ms.depth)
		o, addr, din, we := m*L, rn.addr*L, rn.din*L, rn.we*L
		for l, on := range armed {
			// The address compares unsigned, so a negative word is out of
			// range too: no write, and the read port holds.
			if !on || !valid[addr+l] || vals[addr+l] >= depth {
				continue
			}
			w := uint64(l)*depth + vals[addr+l]
			if vals[we+l]&1 == 1 && valid[din+l] {
				mem[w] = vals[din+l] & ms.mask
				// The read-port refresh below publishes this word when the
				// address holds, so the mark is redundant; it keeps "a write
				// to what a node reads marks the node" without exception.
				in.dirty.add(rn.rd)
			}
			// Read-port refresh from the pre-edge address over the
			// post-write contents (the event RAM does both in one React).
			in.ramNext[o+l], in.ramSet[o+l] = sext(mem[w], ms.shift), true
		}
	}
	for s := range p.stims {
		for l, on := range armed {
			if !on {
				continue
			}
			i := s*L + l
			vec := in.stimVec[i]
			if len(vec) == 0 {
				in.stimLast[i], in.stimLastSet[i] = 1, true
				continue
			}
			pos := in.stimPos[i]
			idx := pos
			if idx >= len(vec) {
				idx = len(vec) - 1
			}
			in.stimOut[i], in.stimOutSet[i] = vec[idx], true
			if pos >= len(vec)-1 {
				in.stimLast[i] = 1
			} else {
				in.stimLast[i] = 0
			}
			in.stimLastSet[i] = true
			if pos < len(vec) {
				in.stimPos[i] = pos + 1
			}
		}
	}
	for s := range p.sinks {
		sn := &p.sinks[s]
		v, en, sh := sn.in*L, sn.en*L, p.slots[sn.in].shift
		for l, on := range armed {
			if !on || (sn.en >= 0 && vals[en+l]&1 == 0) || !valid[v+l] {
				continue
			}
			i := s*L + l
			in.sinkRec[i] = append(in.sinkRec[i], sext(vals[v+l], sh))
		}
	}
}

// publish applies the deferred phase-A results to the slots, element by
// element over the lanes, and marks the readers of every changed slot.
// The FSM publishes only on a transition, and only the outputs that
// differ between its two states: every control slot holds its state's
// output from Reset on.
func (in *Instance) publish() {
	p, L := in.p, in.lanes
	vals, valid, events := in.vals, in.valid, in.events
	apply := func(slot int, next []int64, set []bool) {
		y, mask, changed := slot*L, p.slots[slot].mask, false
		for l, on := range set {
			if on {
				changed = put(vals, valid, events, y+l, l, uint64(next[l])&mask) || changed
				set[l] = false
			}
		}
		if changed {
			in.mark(slot)
		}
	}
	for r := range p.regs {
		apply(p.regs[r].q, in.regNext[r*L:(r+1)*L], in.regSet[r*L:(r+1)*L])
	}
	for l, t := range in.fired {
		if t == 0 {
			continue
		}
		for _, c := range p.ctlDiff[p.diffAt[t-1]:p.diffAt[t]] {
			if put(vals, valid, events, c.slot*L+l, l, c.val) {
				in.mark(c.slot)
			}
		}
		in.fired[l] = 0
	}
	for m := range p.rams {
		apply(p.rams[m].dout, in.ramNext[m*L:(m+1)*L], in.ramSet[m*L:(m+1)*L])
	}
	for s := range p.stims {
		apply(p.stims[s].out, in.stimOut[s*L:(s+1)*L], in.stimOutSet[s*L:(s+1)*L])
		apply(p.stims[s].last, in.stimLast[s*L:(s+1)*L], in.stimLastSet[s*L:(s+1)*L])
	}
}

// settle sweeps the dirty set in ascending order over the armed lanes
// of [lo, hi). A node's readers sit after it in topological order, so
// the marks its changed output adds are met later in the same sweep,
// which reaches the delta-cascade fixpoint and leaves the set empty. In
// a gang the set is the union over the lanes; evaluating a node whose
// inputs did not change on a lane is harmless, as every node is a pure
// function of its inputs and its memory word. Reactions are counted in
// bulk by the callers.
func (in *Instance) settle(lo, hi int) {
	dirty := in.dirty
	for w := range dirty {
		for dirty[w] != 0 {
			b := bits.TrailingZeros64(dirty[w])
			dirty[w] &^= 1 << b
			if n := &in.p.comb[w<<6|b]; in.eval(n, lo, hi) {
				in.mark(n.y)
			}
		}
	}
}

// eval evaluates one comb node over the armed lanes of [lo, hi),
// node-major: it resolves its kind, operand offsets and widths once,
// then loops over the lanes, and reports whether its output changed on
// any of them. A node whose inputs are not all defined — or whose
// select or address is out of range — holds its previous output, the
// event operators' semantics.
func (in *Instance) eval(n *combNode, lo, hi int) (changed bool) {
	p, L, armed := in.p, in.lanes, in.armed
	vals, valid, events := in.vals, in.valid, in.events
	y := n.y * L
	switch n.kind {
	case combUnary:
		a := n.a * L
		for l := lo; l < hi; l++ {
			if armed[l] && valid[a+l] {
				changed = put(vals, valid, events, y+l, l, uint64(n.un(sext(vals[a+l], n.ash), n.width))&n.mask) || changed
			}
		}
	case combBinary:
		a, b := n.a*L, n.b*L
		for l := lo; l < hi; l++ {
			if armed[l] && valid[a+l] && valid[b+l] {
				r := n.bin(sext(vals[a+l], n.ash), sext(vals[b+l], n.bsh), n.width)
				changed = put(vals, valid, events, y+l, l, uint64(r)&n.mask) || changed
			}
		}
	case combMux:
		sel := n.sel * L
		for l := lo; l < hi; l++ {
			if !armed[l] || !valid[sel+l] || vals[sel+l] >= uint64(len(n.ins)) {
				continue
			}
			src := n.ins[vals[sel+l]]
			if j := src*L + l; valid[j] {
				changed = put(vals, valid, events, y+l, l, uint64(sext(vals[j], p.slots[src].shift))&n.mask) || changed
			}
		}
	case combMemRead:
		ms := &p.mems[n.mem]
		mem, depth := in.mems[n.mem], uint64(ms.depth)
		a := n.a * L
		for l := lo; l < hi; l++ {
			// Unsigned compare: a negative address word is out of range.
			if armed[l] && valid[a+l] && vals[a+l] < depth {
				v := mem[uint64(l)*depth+vals[a+l]]
				changed = put(vals, valid, events, y+l, l, uint64(sext(v, ms.shift))&n.mask) || changed
			}
		}
	}
	return changed
}

// LaneRun reports one lane's execution of one configuration — the
// cycle-engine counterpart of netlist.RunResult plus kernel counters.
type LaneRun struct {
	Cycles     uint64
	EndTime    hades.Time
	Completed  bool
	FinalState string
	Stats      hades.Stats
}

// Result reports a lane's last run, with hades-shaped counters: Events,
// Reactions and Instants are per-run, Elaborations is 1 (the program
// compiles once) and Resets counts replay rounds — the first Reset is
// part of instantiation, matching the event path where a configuration's
// first visit elaborates (Resets 0) and repeat visits reset-and-replay.
func (in *Instance) Result(lane int) LaneRun {
	replays := in.resets[lane]
	if replays > 0 {
		replays--
	}
	return LaneRun{
		Cycles:     in.cycles[lane],
		EndTime:    in.endTime[lane],
		Completed:  in.completed[lane],
		FinalState: in.p.states[in.state[lane]].name,
		Stats: hades.Stats{
			Events:       in.events[lane],
			Deltas:       in.instants[lane],
			Reactions:    in.reactions[lane],
			Instants:     in.instants[lane],
			Elaborations: 1,
			Resets:       replays,
		},
	}
}

// Sinks returns a lane's sink recordings by operator id. The slices are
// live buffers, valid until the lane's next Reset.
func (in *Instance) Sinks(lane int) map[string][]int64 {
	out := make(map[string][]int64, len(in.p.sinks))
	for s := range in.p.sinks {
		out[in.p.sinks[s].id] = in.sinkRec[s*in.lanes+lane]
	}
	return out
}

// CopyShared writes a lane's contents of the RAM bound to the given RTG
// shared-memory ref into dst as sign-extended words, reporting whether
// the ref exists in this configuration.
func (in *Instance) CopyShared(lane int, ref string, dst []int64) bool {
	m := len(in.p.mems) - 1 // the last RAM bound to ref, as the event path keeps
	for m >= 0 && in.p.mems[m].ref != ref {
		m--
	}
	if ref == "" || m < 0 {
		return false
	}
	ms := &in.p.mems[m]
	mem := in.mems[m][lane*ms.depth : (lane+1)*ms.depth]
	n := ms.depth
	if len(dst) < n {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = sext(mem[i], ms.shift)
	}
	return true
}
