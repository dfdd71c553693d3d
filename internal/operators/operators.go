// Package operators provides the library of functional-unit models the
// simulator instantiates for each datapath operator — the Go counterpart
// of the paper's "Library of Operators (JAVA)" box in Figure 1.
//
// Every operator is a hades.Reactor wired to signals. The word-level
// semantics are those of Java int arithmetic generalised to a configurable
// bit width: two's-complement, wrap-around, arithmetic on sign-extended
// values, shift amounts taken modulo 64. Division and remainder by zero
// yield zero (a defined value keeps simulation running; the verification
// step flags any divergence from the golden algorithm, which uses the same
// convention).
package operators

import (
	"fmt"

	"repro/internal/hades"
)

// Dir is a port direction.
type Dir int

// Port directions.
const (
	In Dir = iota
	Out
)

// PortSpec describes one port of an operator type.
type PortSpec struct {
	Name  string
	Dir   Dir
	Width int
	Bind  Bind // how elaboration feeds an input; outputs leave it Driven
}

// Bind says how elaboration feeds an input port: it is the one place
// that declares which undriven inputs tie to ground and which stay
// open, and both engines resolve ports through it.
type Bind uint8

// Input bindings.
const (
	// Driven inputs take a connection or a control; elaboration fails
	// when neither drives one.
	Driven Bind = iota
	// Clock inputs are always wired to the configuration clock.
	Clock
	// Ground inputs take a connection or a control, else constant zero
	// (a read-only RAM has no writer, a sink may have no enable).
	Ground
	// Open inputs take a connection or a control, else nothing: the
	// model treats the port as absent (a register without enable or
	// reset).
	Open
)

// Params carries the elaboration-time parameters parsed from the operator
// element's XML attributes.
type Params struct {
	Width  int     // word width of the operator (default 32)
	Value  int64   // const: the constant value
	Depth  int     // ram/rom/stim: number of words
	Inputs int     // mux: number of data inputs
	Init   []int64 // ram/rom: initial contents; stim: the stimulus vector
}

// Kind is the model class of an operator type. The cycle compiler
// lowers each kind to its levelized node; the event kernel needs only
// Build.
type Kind uint8

// Operator kinds.
const (
	KindConst Kind = iota
	KindUnary
	KindBinary
	KindMux
	KindReg
	KindRAM
	KindROM
	KindStim
	KindSink
)

// Spec describes an operator type: its model class and word function,
// how to compute its port list from parameters and how to build the
// live component.
type Spec struct {
	Type   string
	Kind   Kind
	Unary  UnaryFn  // KindUnary: the word function both engines apply
	Binary BinaryFn // KindBinary: the word function both engines apply
	Ports  func(p Params) []PortSpec
	// Build instantiates the component on sim. sigs holds one signal
	// per port in Ports(p) order; an Open input no one drives is nil.
	// sigs is only valid during the call: a builder that keeps signals
	// copies them.
	Build func(sim *hades.Simulator, name string, p Params, sigs []*hades.Signal) (hades.Reactor, error)
}

// Registry maps operator type names to specs. The one instance is the
// library DefaultRegistry returns.
type Registry struct {
	specs map[string]*Spec
}

// Lookup finds a spec by type name.
func (r *Registry) Lookup(typ string) (*Spec, bool) {
	s, ok := r.specs[typ]
	return s, ok
}

// Types returns the registered type names (unsorted).
func (r *Registry) Types() []string {
	out := make([]string, 0, len(r.specs))
	for t := range r.specs {
		out = append(out, t)
	}
	return out
}

// MaxDepth is the deepest ram or rom a simulation allocates, 16x the
// largest array any workload family builds.
const MaxDepth = 1 << 24

// AddrWidth returns the address width needed for depth words (minimum 1).
// No int depth needs more than 63 bits; the bound also stops the loop
// where 1<<w would overflow.
func AddrWidth(depth int) int {
	w := 1
	for w < 63 && 1<<uint(w) < depth {
		w++
	}
	return w
}

// pins checks a builder's signals: n of them, one per port, each
// connected except the last optional ones (whose models accept an
// absent port), so a miswired call fails elaboration, not simulation.
func pins(inst string, sigs []*hades.Signal, n, optional int) error {
	if len(sigs) != n {
		return fmt.Errorf("operators: instance %q: %d signals for %d ports", inst, len(sigs), n)
	}
	for i, s := range sigs[:n-optional] {
		if s == nil {
			return fmt.Errorf("operators: instance %q: port %d not connected", inst, i)
		}
	}
	return nil
}

func defWidth(p Params) int {
	if p.Width <= 0 {
		return 32
	}
	return p.Width
}
