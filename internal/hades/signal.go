package hades

import "fmt"

// Signal is a named wire carrying a word value of a fixed bit width.
// Signals begin undefined (the X state of an HDL simulator) and become
// defined on their first update. Values are stored masked to the signal
// width; readers that need a signed interpretation use Signed.
type Signal struct {
	name  string
	width int
	mask  uint64

	val   uint64
	valid bool

	id        int
	sim       *Simulator // owner; resolves listeners to reactor slots
	listeners []int32    // slots in the owner's reactor table

	// lastChange is used by probes/VCD for change detection bookkeeping.
	lastChange Time
}

// Name returns the signal's hierarchical name.
func (s *Signal) Name() string { return s.name }

// Width returns the signal's bit width (1..64).
func (s *Signal) Width() int { return s.width }

// Valid reports whether the signal has been driven at least once.
func (s *Signal) Valid() bool { return s.valid }

// Uint returns the current value zero-extended. Undefined signals read 0.
func (s *Signal) Uint() uint64 { return s.val }

// Int returns the current value sign-extended from the signal width.
func (s *Signal) Int() int64 { return SignExtend(s.val, s.width) }

// Bool reports whether the low bit is set; convenient for 1-bit controls.
func (s *Signal) Bool() bool { return s.val&1 == 1 }

// LastChange returns the time of the most recent value change.
func (s *Signal) LastChange() Time { return s.lastChange }

// Listen registers r to be scheduled whenever the signal changes value.
// The owning simulator resolves r to its reactor slot here, once, and
// reads r's ordering id (ReactorID) at the same time: a component must
// call AssignID before it first listens.
func (s *Signal) Listen(r Reactor) { s.listeners = append(s.listeners, s.sim.slot(r)) }

func (s *Signal) String() string {
	if !s.valid {
		return fmt.Sprintf("%s=X", s.name)
	}
	return fmt.Sprintf("%s=%d", s.name, s.Int())
}

// Mask returns v truncated to width bits.
func Mask(v uint64, width int) uint64 {
	if width >= 64 {
		return v
	}
	return v & (1<<uint(width) - 1)
}

// SignExtend interprets the low width bits of v as a two's-complement
// number and returns it as int64.
func SignExtend(v uint64, width int) int64 {
	if width >= 64 {
		return int64(v)
	}
	v = Mask(v, width)
	if v&(1<<uint(width-1)) != 0 {
		return int64(v | ^uint64(0)<<uint(width))
	}
	return int64(v)
}
