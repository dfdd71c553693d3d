package operators

import (
	"fmt"

	"repro/internal/hades"
)

// DefaultRegistry builds the full operator library used by the
// infrastructure. It is the one table both engines read: netlist
// resolves datapath operator types against it and builds each reactor,
// and the cycle compiler lowers each spec's Kind with the word function
// the spec carries.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	r.Register(constSpec())
	for _, u := range []struct {
		typ string
		fn  UnaryFn
	}{
		{"neg", WordNeg}, {"not", WordNot}, {"lnot", WordLNot}, {"b2i", WordB2I},
	} {
		r.Register(unarySpec(u.typ, u.fn))
	}
	for _, b := range []struct {
		typ string
		fn  BinaryFn
	}{
		{"add", WordAdd}, {"sub", WordSub}, {"mul", WordMul},
		{"div", WordDiv}, {"mod", WordMod},
		{"and", WordAnd}, {"or", WordOr}, {"xor", WordXor},
		{"shl", WordShl}, {"shr", WordShr}, {"sra", WordSra},
		{"eq", WordEq}, {"ne", WordNe}, {"lt", WordLt},
		{"le", WordLe}, {"gt", WordGt}, {"ge", WordGe},
	} {
		r.Register(binarySpec(b.typ, b.fn))
	}
	r.Register(muxSpec())
	r.Register(regSpec())
	r.Register(ramSpec())
	r.Register(romSpec())
	r.Register(stimSpec())
	r.Register(sinkSpec())
	return r
}

// in and out declare a driven input and an output; clkPort is the
// clock input every clocked operator lists.
func in(name string, w int) PortSpec  { return PortSpec{name, In, w, Driven} }
func out(name string, w int) PortSpec { return PortSpec{name, Out, w, Driven} }

var clkPort = PortSpec{"clk", In, 1, Clock}

func constSpec() *Spec {
	return &Spec{
		Type: "const",
		Kind: KindConst,
		Ports: func(p Params) []PortSpec {
			return []PortSpec{out("y", defWidth(p))}
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			if err := pins(name, s, 1, 0); err != nil {
				return nil, err
			}
			c := &Const{name: name, y: s[0], val: p.Value}
			c.AssignID(hades.NextID())
			sim.Drive(s[0], p.Value)
			return c, nil
		},
	}
}

// unarySpec covers the one-input operators: lnot yields one bit, b2i
// reads one.
func unarySpec(typ string, fn UnaryFn) *Spec {
	return &Spec{
		Type:  typ,
		Kind:  KindUnary,
		Unary: fn,
		Ports: func(p Params) []PortSpec {
			a, y := defWidth(p), defWidth(p)
			switch typ {
			case "lnot":
				y = 1
			case "b2i":
				a = 1
			}
			return []PortSpec{in("a", a), out("y", y)}
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			if err := pins(name, s, 2, 0); err != nil {
				return nil, err
			}
			u := &Unary{name: name, a: s[0], y: s[1], width: defWidth(p), fn: fn}
			u.AssignID(hades.NextID())
			s[0].Listen(u)
			return u, nil
		},
	}
}

// binarySpec covers arithmetic, logic and shifts; comparisons yield one
// bit.
func binarySpec(typ string, fn BinaryFn) *Spec {
	cmp := false
	switch typ {
	case "eq", "ne", "lt", "le", "gt", "ge":
		cmp = true
	}
	return &Spec{
		Type:   typ,
		Kind:   KindBinary,
		Binary: fn,
		Ports: func(p Params) []PortSpec {
			w, y := defWidth(p), defWidth(p)
			if cmp {
				y = 1
			}
			return []PortSpec{in("a", w), in("b", w), out("y", y)}
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			if err := pins(name, s, 3, 0); err != nil {
				return nil, err
			}
			o := &Binary{name: name, a: s[0], b: s[1], y: s[2], width: defWidth(p), fn: fn}
			o.AssignID(hades.NextID())
			s[0].Listen(o)
			s[1].Listen(o)
			return o, nil
		},
	}
}

// MuxInputs is a mux's data input count: its inputs parameter, at
// least 2. Ports lists in0..in<n-1>, then sel and y.
func MuxInputs(p Params) int {
	if p.Inputs < 2 {
		return 2
	}
	return p.Inputs
}

func muxSpec() *Spec {
	return &Spec{
		Type: "mux",
		Kind: KindMux,
		Ports: func(p Params) []PortSpec {
			w, n := defWidth(p), MuxInputs(p)
			ports := make([]PortSpec, 0, n+2)
			for i := 0; i < n; i++ {
				ports = append(ports, in(fmt.Sprintf("in%d", i), w))
			}
			return append(ports, in("sel", AddrWidth(n)), out("y", w))
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			n := MuxInputs(p)
			if err := pins(name, s, n+2, 0); err != nil {
				return nil, err
			}
			m := &Mux{name: name, ins: append([]*hades.Signal(nil), s[:n]...), sel: s[n], y: s[n+1]}
			m.AssignID(hades.NextID())
			for _, x := range m.ins {
				x.Listen(m)
			}
			m.sel.Listen(m)
			return m, nil
		},
	}
}

func regSpec() *Spec {
	return &Spec{
		Type: "reg",
		Kind: KindReg,
		Ports: func(p Params) []PortSpec {
			w := defWidth(p)
			return []PortSpec{clkPort, in("d", w), out("q", w), {"en", In, 1, Open}, {"rst", In, 1, Open}}
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			if err := pins(name, s, 5, 2); err != nil {
				return nil, err
			}
			r := &Register{name: name, clk: s[0], d: s[1], q: s[2], en: s[3], rst: s[4], initVal: p.Value}
			r.AssignID(hades.NextID())
			s[0].Listen(r)
			// Power-on value: registers come up holding their reset value,
			// which breaks X-propagation cycles through register feedback
			// loops (i = i + 1 would otherwise never become defined).
			sim.Drive(s[2], p.Value)
			return r, nil
		},
	}
}

func ramSpec() *Spec {
	return &Spec{
		Type: "ram",
		Kind: KindRAM,
		Ports: func(p Params) []PortSpec {
			w := defWidth(p)
			return []PortSpec{clkPort, in("addr", AddrWidth(p.Depth)),
				{"din", In, w, Ground}, {"we", In, 1, Ground}, out("dout", w)}
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			if p.Depth <= 0 {
				return nil, fmt.Errorf("operators: ram %q needs a positive depth", name)
			}
			if err := pins(name, s, 5, 0); err != nil {
				return nil, err
			}
			m := &RAM{
				name: name, mem: make([]uint64, p.Depth), width: defWidth(p),
				clk: s[0], addr: s[1], din: s[2], we: s[3], dout: s[4],
			}
			m.AssignID(hades.NextID())
			m.LoadContents(p.Init)
			m.clk.Listen(m)
			m.addr.Listen(m)
			return m, nil
		},
	}
}

func romSpec() *Spec {
	return &Spec{
		Type: "rom",
		Kind: KindROM,
		Ports: func(p Params) []PortSpec {
			return []PortSpec{in("addr", AddrWidth(p.Depth)), out("dout", defWidth(p))}
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			if p.Depth <= 0 {
				return nil, fmt.Errorf("operators: rom %q needs a positive depth", name)
			}
			if err := pins(name, s, 2, 0); err != nil {
				return nil, err
			}
			m := &ROM{name: name, mem: make([]uint64, p.Depth), width: defWidth(p), addr: s[0], dout: s[1]}
			m.AssignID(hades.NextID())
			for i, v := range p.Init {
				if i < len(m.mem) {
					m.mem[i] = hades.Mask(uint64(v), m.width)
				}
			}
			m.addr.Listen(m)
			return m, nil
		},
	}
}

func stimSpec() *Spec {
	return &Spec{
		Type: "stim",
		Kind: KindStim,
		Ports: func(p Params) []PortSpec {
			return []PortSpec{clkPort, out("out", defWidth(p)), out("last", 1)}
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			if err := pins(name, s, 3, 0); err != nil {
				return nil, err
			}
			st := &Stimulus{name: name, clk: s[0], out: s[1], last: s[2], vec: p.Init}
			st.AssignID(hades.NextID())
			s[0].Listen(st)
			return st, nil
		},
	}
}

// sinkSpec: an undriven enable ties to ground in a netlist; a nil one
// (a direct Build) samples every edge.
func sinkSpec() *Spec {
	return &Spec{
		Type: "sink",
		Kind: KindSink,
		Ports: func(p Params) []PortSpec {
			return []PortSpec{clkPort, in("in", defWidth(p)), {"en", In, 1, Ground}}
		},
		Build: func(sim *hades.Simulator, name string, p Params, s []*hades.Signal) (hades.Reactor, error) {
			if err := pins(name, s, 3, 1); err != nil {
				return nil, err
			}
			k := &Sink{name: name, clk: s[0], in: s[1], en: s[2]}
			k.AssignID(hades.NextID())
			s[0].Listen(k)
			return k, nil
		},
	}
}
