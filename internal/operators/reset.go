package operators

import (
	"repro/internal/hades"
)

// Replayable is implemented by operator models that carry run-time
// state or elaboration-time power-on drives. After hades.Simulator.Reset
// has rewound the kernel, ResetState rewinds the component to the state
// a fresh Build would have produced: counters and edge trackers clear,
// memory/stimulus contents reload from init (nil means the contents a
// fresh build with no InitData would get), and power-on signal drives
// are re-asserted through sim. netlist.Elaboration.Reset walks the
// components in elaboration order, so a replayed configuration starts
// bit-for-bit identical to a freshly elaborated one.
//
// Purely combinational operators (adders, comparators, muxes) hold no
// state and do not implement the interface; their outputs are
// re-derived by the elaboration-time settle pass.
type Replayable interface {
	ResetState(sim *hades.Simulator, init []int64)
}

// ResetState re-asserts the constant's power-on drive.
func (c *Const) ResetState(sim *hades.Simulator, _ []int64) {
	sim.Drive(c.y, c.val)
}

// ResetState clears the edge tracker and re-asserts the power-on value.
func (r *Register) ResetState(sim *hades.Simulator, _ []int64) {
	r.prevClk = false
	sim.Drive(r.q, r.initVal)
}

// ResetState reloads the memory from init (zero-filling the tail, as a
// fresh build does) and clears the edge tracker.
func (m *RAM) ResetState(_ *hades.Simulator, init []int64) {
	m.prevClk = false
	m.LoadContents(init)
}

// ResetState reloads the table from init, mirroring a fresh build.
func (m *ROM) ResetState(_ *hades.Simulator, init []int64) {
	for i := range m.mem {
		if i < len(init) {
			m.mem[i] = hades.Mask(uint64(init[i]), m.width)
		} else {
			m.mem[i] = 0
		}
	}
}

// ResetState rewinds the stream to its start and replaces the vector
// with init (the seed a fresh build would have received).
func (s *Stimulus) ResetState(_ *hades.Simulator, init []int64) {
	s.prevClk = false
	s.pos = 0
	s.vec = init
}

// ResetState clears the recording, keeping its capacity for the replay.
func (s *Sink) ResetState(_ *hades.Simulator, _ []int64) {
	s.prevClk = false
	s.rec = s.rec[:0]
}
