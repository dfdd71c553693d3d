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
}

// Params carries the elaboration-time parameters parsed from the operator
// element's XML attributes.
type Params struct {
	Width  int     // word width of the operator (default 32)
	Value  int64   // const: the constant value
	Depth  int     // ram/rom/stim: number of words
	Inputs int     // mux: number of data inputs
	Init   []int64 // ram/rom: initial contents; stim: the stimulus vector
}

// Spec describes an operator type: how to compute its port list from
// parameters and how to build the live component.
type Spec struct {
	Type  string
	Ports func(p Params) []PortSpec
	Build func(sim *hades.Simulator, name string, p Params, conn map[string]*hades.Signal) (hades.Reactor, error)
}

// Registry maps operator type names to specs.
type Registry struct {
	specs map[string]*Spec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{specs: make(map[string]*Spec)} }

// Register adds a spec; duplicate type names panic (a programming error).
func (r *Registry) Register(s *Spec) {
	if _, dup := r.specs[s.Type]; dup {
		panic("operators: duplicate spec " + s.Type)
	}
	r.specs[s.Type] = s
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

// need fetches a connected signal or errors; all operator Build funcs use
// it so a malformed netlist fails elaboration, not simulation.
func need(conn map[string]*hades.Signal, inst, port string) (*hades.Signal, error) {
	s, ok := conn[port]
	if !ok || s == nil {
		return nil, fmt.Errorf("operators: instance %q: port %q not connected", inst, port)
	}
	return s, nil
}

// optional fetches a signal that may be absent (e.g. a register without
// an enable).
func optional(conn map[string]*hades.Signal, port string) *hades.Signal {
	return conn[port]
}

func defWidth(p Params) int {
	if p.Width <= 0 {
		return 32
	}
	return p.Width
}
