package operators

import (
	"repro/internal/hades"
)

// Register is an edge-triggered word register with optional synchronous
// reset and write enable. It listens on its clock only; data and control
// inputs are sampled at the rising edge, which gives standard synchronous
// semantics under the kernel's delta-cycle model.
type Register struct {
	hades.IDBase
	name    string
	clk     *hades.Signal
	d       *hades.Signal
	q       *hades.Signal
	en      *hades.Signal // nil: always enabled
	rst     *hades.Signal // nil: no reset
	initVal int64
	prevClk bool
}

// Name returns the instance name.
func (r *Register) Name() string { return r.name }

// React samples on rising clock edges.
func (r *Register) React(sim *hades.Simulator) {
	if !hades.RisingEdge(r.clk, &r.prevClk) {
		return
	}
	if r.rst != nil && r.rst.Bool() {
		sim.Set(r.q, r.initVal, 0)
		return
	}
	if r.en != nil && !r.en.Bool() {
		return
	}
	if r.d.Valid() {
		sim.Set(r.q, r.d.Int(), 0)
	}
}

// RAM is a single-port word memory with asynchronous read and synchronous
// write, matching the SRAMs the paper's FDCT implementations use for
// input, output and intermediate images. Contents survive between Run
// calls so the reconfiguration controller can carry data across temporal
// partitions, and are accessible for file load/compare.
type RAM struct {
	hades.IDBase
	name    string
	mem     []uint64
	width   int
	clk     *hades.Signal
	addr    *hades.Signal
	din     *hades.Signal
	we      *hades.Signal
	dout    *hades.Signal
	prevClk bool
}

// Name returns the instance name.
func (m *RAM) Name() string { return m.name }

// Depth returns the number of words.
func (m *RAM) Depth() int { return len(m.mem) }

// Width returns the word width.
func (m *RAM) Width() int { return m.width }

// Peek reads a word directly (for verification and file dumps).
func (m *RAM) Peek(addr int) int64 {
	if addr < 0 || addr >= len(m.mem) {
		return 0
	}
	return hades.SignExtend(m.mem[addr], m.width)
}

// Poke writes a word directly (for file loads before simulation).
func (m *RAM) Poke(addr int, v int64) {
	if addr >= 0 && addr < len(m.mem) {
		m.mem[addr] = hades.Mask(uint64(v), m.width)
	}
}

// Contents returns a snapshot of the memory as sign-extended words.
func (m *RAM) Contents() []int64 {
	out := make([]int64, len(m.mem))
	m.CopyContents(out)
	return out
}

// CopyContents writes the memory into dst as sign-extended words,
// stopping at the shorter of the two — the allocation-free form of
// Contents, for the reconfiguration write-back on the replay hot path.
func (m *RAM) CopyContents(dst []int64) {
	n := len(m.mem)
	if len(dst) < n {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		dst[i] = hades.SignExtend(m.mem[i], m.width)
	}
}

// LoadContents replaces the memory contents from the given words.
func (m *RAM) LoadContents(words []int64) {
	for i := range m.mem {
		if i < len(words) {
			m.mem[i] = hades.Mask(uint64(words[i]), m.width)
		} else {
			m.mem[i] = 0
		}
	}
}

// React performs the synchronous write on rising clock edges and keeps the
// asynchronous read output coherent with the address input. An address
// at or past the depth — compared unsigned, so a negative word counts —
// drops the write and holds the read output.
func (m *RAM) React(sim *hades.Simulator) {
	if hades.RisingEdge(m.clk, &m.prevClk) && m.we.Bool() && m.addr.Valid() && m.din.Valid() {
		if a := m.addr.Uint(); a < uint64(len(m.mem)) {
			m.mem[a] = hades.Mask(m.din.Uint(), m.width)
		}
	}
	m.updateRead(sim)
}

func (m *RAM) updateRead(sim *hades.Simulator) {
	if !m.addr.Valid() {
		return
	}
	a := m.addr.Uint()
	if a >= uint64(len(m.mem)) {
		return
	}
	sim.Set(m.dout, hades.SignExtend(m.mem[a], m.width), 0)
}

// ROM is a read-only word memory with asynchronous read, used for
// coefficient tables.
type ROM struct {
	hades.IDBase
	name  string
	mem   []uint64
	width int
	addr  *hades.Signal
	dout  *hades.Signal
}

// Name returns the instance name.
func (m *ROM) Name() string { return m.name }

// Depth returns the number of words.
func (m *ROM) Depth() int { return len(m.mem) }

// Peek reads a word directly.
func (m *ROM) Peek(addr int) int64 {
	if addr < 0 || addr >= len(m.mem) {
		return 0
	}
	return hades.SignExtend(m.mem[addr], m.width)
}

// React keeps the read port coherent with the address; an out-of-range
// address (compared unsigned, as for the RAM) holds the output.
func (m *ROM) React(sim *hades.Simulator) {
	if !m.addr.Valid() {
		return
	}
	a := m.addr.Uint()
	if a >= uint64(len(m.mem)) {
		return
	}
	sim.Set(m.dout, hades.SignExtend(m.mem[a], m.width), 0)
}

// Stimulus replays a vector of input values: on each rising clock edge it
// drives the next word (holding the last word at end of stream) and a
// 1-bit last flag. It is the file-driven I/O source of the infrastructure.
type Stimulus struct {
	hades.IDBase
	name    string
	clk     *hades.Signal
	out     *hades.Signal
	last    *hades.Signal
	vec     []int64
	pos     int
	prevClk bool
}

// Name returns the instance name.
func (s *Stimulus) Name() string { return s.name }

// React advances the stream on rising edges.
func (s *Stimulus) React(sim *hades.Simulator) {
	if !hades.RisingEdge(s.clk, &s.prevClk) {
		return
	}
	if len(s.vec) == 0 {
		sim.Set(s.last, 1, 0)
		return
	}
	idx := s.pos
	if idx >= len(s.vec) {
		idx = len(s.vec) - 1
	}
	sim.Set(s.out, s.vec[idx], 0)
	if s.pos >= len(s.vec)-1 {
		sim.Set(s.last, 1, 0)
	} else {
		sim.Set(s.last, 0, 0)
	}
	if s.pos < len(s.vec) {
		s.pos++
	}
}

// Sink records the value of its input at every rising clock edge on which
// the enable input is high — the collector side of file-based I/O.
type Sink struct {
	hades.IDBase
	name    string
	clk     *hades.Signal
	in      *hades.Signal
	en      *hades.Signal // nil: sample every edge
	rec     []int64
	prevClk bool
}

// Name returns the instance name.
func (s *Sink) Name() string { return s.name }

// Recorded returns the captured samples.
func (s *Sink) Recorded() []int64 { return s.rec }

// React samples on enabled rising edges.
func (s *Sink) React(sim *hades.Simulator) {
	if !hades.RisingEdge(s.clk, &s.prevClk) {
		return
	}
	if s.en != nil && !s.en.Bool() {
		return
	}
	if s.in.Valid() {
		s.rec = append(s.rec, s.in.Int())
	}
}
