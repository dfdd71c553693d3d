package operators

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hades"
)

// buildBin elaborates a single binary operator and returns the signals.
func buildBin(t *testing.T, typ string, width int) (*hades.Simulator, *hades.Signal, *hades.Signal, *hades.Signal) {
	t.Helper()
	reg := DefaultRegistry()
	spec, ok := reg.Lookup(typ)
	if !ok {
		t.Fatalf("type %q not registered", typ)
	}
	sim := hades.NewSimulator()
	p := Params{Width: width}
	var sigs []*hades.Signal
	for _, ps := range spec.Ports(p) {
		sigs = append(sigs, sim.NewSignal(typ+"."+ps.Name, ps.Width))
	}
	if _, err := spec.Build(sim, typ+"0", p, sigs); err != nil {
		t.Fatal(err)
	}
	return sim, sigs[0], sigs[1], sigs[2]
}

func evalBin(t *testing.T, typ string, width int, a, b int64) int64 {
	t.Helper()
	sim, sa, sb, sy := buildBin(t, typ, width)
	sim.Set(sa, a, 1)
	sim.Set(sb, b, 1)
	if _, err := sim.Run(hades.TimeMax); err != nil {
		t.Fatal(err)
	}
	return sy.Int()
}

func TestBinaryOperatorSemantics(t *testing.T) {
	cases := []struct {
		typ   string
		a, b  int64
		want  int64
		width int
	}{
		{"add", 3, 4, 7, 32},
		{"add", 1<<31 - 1, 1, -(1 << 31), 32}, // wrap-around
		{"sub", 3, 5, -2, 32},
		{"mul", -3, 7, -21, 32},
		{"mul", 1 << 20, 1 << 20, 0, 32}, // overflow wraps to 0 mod 2^32
		{"div", 7, 2, 3, 32},
		{"div", -7, 2, -3, 32}, // truncation toward zero (Java)
		{"div", 5, 0, 0, 32},   // defined: divide by zero gives 0
		{"mod", 7, 3, 1, 32},
		{"mod", -7, 3, -1, 32}, // Java remainder sign
		{"mod", 5, 0, 0, 32},
		{"and", 0b1100, 0b1010, 0b1000, 32},
		{"or", 0b1100, 0b1010, 0b1110, 32},
		{"xor", 0b1100, 0b1010, 0b0110, 32},
		{"shl", 1, 4, 16, 32},
		{"shl", 1, 31, -(1 << 31), 32},
		{"shr", -1, 28, 15, 32}, // logical shift pulls in zeros at width 32
		{"sra", -16, 2, -4, 32}, // arithmetic shift keeps sign
		{"shr", 16, 2, 4, 32},
		{"add", 200, 100, 44, 8}, // 8-bit wrap: 300 mod 256 = 44
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s_%d_%d_w%d", c.typ, c.a, c.b, c.width), func(t *testing.T) {
			if got := evalBin(t, c.typ, c.width, c.a, c.b); got != c.want {
				t.Errorf("%s(%d,%d)w%d = %d, want %d", c.typ, c.a, c.b, c.width, got, c.want)
			}
		})
	}
}

func TestComparisonOperators(t *testing.T) {
	cases := []struct {
		typ  string
		a, b int64
		want int64
	}{
		{"eq", 5, 5, 1}, {"eq", 5, 6, 0},
		{"ne", 5, 6, 1}, {"ne", 5, 5, 0},
		{"lt", -1, 0, 1}, {"lt", 0, -1, 0},
		{"le", 3, 3, 1}, {"le", 4, 3, 0},
		{"gt", 2, 1, 1}, {"gt", 1, 2, 0},
		{"ge", 2, 2, 1}, {"ge", 1, 2, 0},
	}
	for _, c := range cases {
		got := evalBin(t, c.typ, 32, c.a, c.b)
		// comparison outputs are 1-bit; Int() of 1 sign-extends to -1
		got &= 1
		if got != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.typ, c.a, c.b, got, c.want)
		}
	}
}

func TestAddSubInverseProperty(t *testing.T) {
	f := func(a, b int32) bool {
		sum := WordAdd(int64(a), int64(b), 32)
		back := WordSub(sum, int64(b), 32)
		return hades.SignExtend(hades.Mask(uint64(back), 32), 32) ==
			hades.SignExtend(hades.Mask(uint64(int64(a)), 32), 32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShiftEquivalenceProperty(t *testing.T) {
	// shl by k equals mul by 2^k for k in [0,8).
	f := func(a int32, k uint8) bool {
		kk := int64(k % 8)
		l := hades.Mask(uint64(WordShl(int64(a), kk, 32)), 32)
		m := hades.Mask(uint64(WordMul(int64(a), 1<<uint(kk), 32)), 32)
		return l == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnaryOperators(t *testing.T) {
	reg := DefaultRegistry()
	for _, c := range []struct {
		typ  string
		in   int64
		want int64
	}{
		{"neg", 5, -5}, {"neg", -5, 5},
		{"not", 0, -1}, {"not", -1, 0},
		{"lnot", 0, 1}, {"lnot", 7, 0},
	} {
		spec, _ := reg.Lookup(c.typ)
		sim := hades.NewSimulator()
		p := Params{Width: 32}
		a, y := sim.NewSignal("a", 32), sim.NewSignal("y", spec.Ports(p)[1].Width)
		if _, err := spec.Build(sim, c.typ, p, []*hades.Signal{a, y}); err != nil {
			t.Fatal(err)
		}
		sim.Set(a, c.in, 1)
		if _, err := sim.Run(hades.TimeMax); err != nil {
			t.Fatal(err)
		}
		got := y.Int()
		if c.typ == "lnot" {
			got &= 1
		}
		if got != c.want {
			t.Errorf("%s(%d) = %d, want %d", c.typ, c.in, got, c.want)
		}
	}
}

func TestConstDrivesImmediately(t *testing.T) {
	reg := DefaultRegistry()
	spec, _ := reg.Lookup("const")
	sim := hades.NewSimulator()
	y := sim.NewSignal("y", 16)
	if _, err := spec.Build(sim, "c", Params{Width: 16, Value: -42}, []*hades.Signal{y}); err != nil {
		t.Fatal(err)
	}
	if !y.Valid() || y.Int() != -42 {
		t.Fatalf("const output %v/%d", y.Valid(), y.Int())
	}
}

func TestMuxSelects(t *testing.T) {
	reg := DefaultRegistry()
	spec, _ := reg.Lookup("mux")
	sim := hades.NewSimulator()
	p := Params{Width: 8, Inputs: 3}
	conn := map[string]*hades.Signal{}
	var sigs []*hades.Signal
	for _, ps := range spec.Ports(p) {
		conn[ps.Name] = sim.NewSignal(ps.Name, ps.Width)
		sigs = append(sigs, conn[ps.Name])
	}
	if conn["sel"].Width() != 2 {
		t.Fatalf("3-input mux needs 2-bit select, got %d", conn["sel"].Width())
	}
	if _, err := spec.Build(sim, "m", p, sigs); err != nil {
		t.Fatal(err)
	}
	sim.Set(conn["in0"], 10, 1)
	sim.Set(conn["in1"], 20, 1)
	sim.Set(conn["in2"], 30, 1)
	sim.Set(conn["sel"], 1, 2)
	if _, err := sim.Run(hades.TimeMax); err != nil {
		t.Fatal(err)
	}
	if conn["y"].Int() != 20 {
		t.Fatalf("mux y=%d want 20", conn["y"].Int())
	}
	sim.Set(conn["sel"], 2, 1)
	if _, err := sim.Run(hades.TimeMax); err != nil {
		t.Fatal(err)
	}
	if conn["y"].Int() != 30 {
		t.Fatalf("mux y=%d want 30", conn["y"].Int())
	}
	// Out-of-range select (3) keeps the previous output rather than failing.
	sim.Set(conn["sel"], 3, 1)
	if _, err := sim.Run(hades.TimeMax); err != nil {
		t.Fatal(err)
	}
	if conn["y"].Int() != 30 {
		t.Fatalf("mux y=%d want held 30", conn["y"].Int())
	}
}

// regFixture wires a register with clock, enable and reset for testing.
type regFixture struct {
	sim                *hades.Simulator
	clk, d, q, en, rst *hades.Signal
}

func newRegFixture(t *testing.T, withEn, withRst bool, initVal int64) *regFixture {
	t.Helper()
	reg := DefaultRegistry()
	spec, _ := reg.Lookup("reg")
	sim := hades.NewSimulator()
	f := &regFixture{
		sim: sim,
		clk: sim.NewSignal("clk", 1),
		d:   sim.NewSignal("d", 32),
		q:   sim.NewSignal("q", 32),
	}
	if withEn {
		f.en = sim.NewSignal("en", 1)
	}
	if withRst {
		f.rst = sim.NewSignal("rst", 1)
	}
	sigs := []*hades.Signal{f.clk, f.d, f.q, f.en, f.rst}
	if _, err := spec.Build(sim, "r", Params{Width: 32, Value: initVal}, sigs); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *regFixture) tick(t *testing.T, at hades.Time) {
	t.Helper()
	f.sim.Set(f.clk, 1, at-f.sim.Now())
	f.sim.Set(f.clk, 0, at-f.sim.Now()+5)
	if _, err := f.sim.Run(at + 6); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterSamplesOnRisingEdge(t *testing.T) {
	f := newRegFixture(t, false, false, 0)
	f.sim.Set(f.d, 99, 1)
	f.tick(t, 10)
	if f.q.Int() != 99 {
		t.Fatalf("q=%d want 99", f.q.Int())
	}
	// d changes but no edge: q holds.
	f.sim.Set(f.d, 7, 1)
	if _, err := f.sim.Run(f.sim.Now() + 2); err != nil {
		t.Fatal(err)
	}
	if f.q.Int() != 99 {
		t.Fatalf("q=%d want held 99", f.q.Int())
	}
	f.tick(t, 30)
	if f.q.Int() != 7 {
		t.Fatalf("q=%d want 7", f.q.Int())
	}
}

func TestRegisterPowerOnValue(t *testing.T) {
	f := newRegFixture(t, false, false, 42)
	if !f.q.Valid() || f.q.Int() != 42 {
		t.Fatalf("power-on q=%v/%d want 42", f.q.Valid(), f.q.Int())
	}
}

func TestRegisterEnableGates(t *testing.T) {
	f := newRegFixture(t, true, false, 0)
	f.sim.Drive(f.en, 0)
	f.sim.Set(f.d, 5, 1)
	f.tick(t, 10)
	if f.q.Int() != 0 {
		t.Fatal("disabled register must hold its power-on value")
	}
	f.sim.Drive(f.en, 1)
	f.tick(t, 30)
	if f.q.Int() != 5 {
		t.Fatalf("q=%d want 5", f.q.Int())
	}
}

func TestRegisterSyncReset(t *testing.T) {
	f := newRegFixture(t, false, true, 42)
	f.sim.Drive(f.rst, 1)
	f.sim.Set(f.d, 5, 1)
	f.tick(t, 10)
	if f.q.Int() != 42 {
		t.Fatalf("q=%d want reset value 42", f.q.Int())
	}
	f.sim.Drive(f.rst, 0)
	f.tick(t, 30)
	if f.q.Int() != 5 {
		t.Fatalf("q=%d want 5 after reset release", f.q.Int())
	}
}

// ramFixture wires a RAM for testing.
type ramFixture struct {
	sim                     *hades.Simulator
	clk, addr, din, we, out *hades.Signal
	ram                     *RAM
}

func newRAMFixture(t *testing.T, depth int, init []int64) *ramFixture {
	t.Helper()
	reg := DefaultRegistry()
	spec, _ := reg.Lookup("ram")
	sim := hades.NewSimulator()
	f := &ramFixture{
		sim:  sim,
		clk:  sim.NewSignal("clk", 1),
		addr: sim.NewSignal("addr", AddrWidth(depth)),
		din:  sim.NewSignal("din", 32),
		we:   sim.NewSignal("we", 1),
		out:  sim.NewSignal("dout", 32),
	}
	c, err := spec.Build(sim, "m", Params{Width: 32, Depth: depth, Init: init},
		[]*hades.Signal{f.clk, f.addr, f.din, f.we, f.out})
	if err != nil {
		t.Fatal(err)
	}
	f.ram = c.(*RAM)
	return f
}

func (f *ramFixture) tick(t *testing.T) {
	t.Helper()
	f.sim.Set(f.clk, 1, 1)
	f.sim.Set(f.clk, 0, 6)
	if _, err := f.sim.Run(f.sim.Now() + 7); err != nil {
		t.Fatal(err)
	}
}

func TestRAMWriteThenRead(t *testing.T) {
	f := newRAMFixture(t, 16, nil)
	f.sim.Drive(f.we, 1)
	f.sim.Set(f.addr, 3, 1)
	f.sim.Set(f.din, 1234, 1)
	f.tick(t)
	if f.ram.Peek(3) != 1234 {
		t.Fatalf("mem[3]=%d want 1234", f.ram.Peek(3))
	}
	// Async read reflects the write at the same address.
	if f.out.Int() != 1234 {
		t.Fatalf("dout=%d want 1234", f.out.Int())
	}
	// Read another address without writing.
	f.sim.Drive(f.we, 0)
	f.sim.Set(f.addr, 0, 1)
	if _, err := f.sim.Run(f.sim.Now() + 2); err != nil {
		t.Fatal(err)
	}
	if f.out.Int() != 0 {
		t.Fatalf("dout=%d want 0", f.out.Int())
	}
}

func TestRAMInitAndDirectAccess(t *testing.T) {
	f := newRAMFixture(t, 8, []int64{10, 20, 30})
	if f.ram.Peek(0) != 10 || f.ram.Peek(1) != 20 || f.ram.Peek(2) != 30 || f.ram.Peek(3) != 0 {
		t.Fatalf("init wrong: %v", f.ram.Contents())
	}
	f.ram.Poke(7, -9)
	if f.ram.Peek(7) != -9 {
		t.Fatal("poke failed")
	}
	if f.ram.Peek(-1) != 0 || f.ram.Peek(100) != 0 {
		t.Fatal("out-of-range peek must read 0")
	}
	f.ram.Poke(100, 5) // silently ignored
	if got := len(f.ram.Contents()); got != 8 {
		t.Fatalf("depth %d", got)
	}
}

func TestRAMNoWriteWhenDisabled(t *testing.T) {
	f := newRAMFixture(t, 8, nil)
	f.sim.Drive(f.we, 0)
	f.sim.Set(f.addr, 2, 1)
	f.sim.Set(f.din, 777, 1)
	f.tick(t)
	if f.ram.Peek(2) != 0 {
		t.Fatalf("mem[2]=%d want 0 (we low)", f.ram.Peek(2))
	}
}

func TestROMRead(t *testing.T) {
	reg := DefaultRegistry()
	spec, _ := reg.Lookup("rom")
	sim := hades.NewSimulator()
	addr := sim.NewSignal("addr", 3)
	dout := sim.NewSignal("dout", 32)
	if _, err := spec.Build(sim, "t", Params{Width: 32, Depth: 8, Init: []int64{5, 6, 7}},
		[]*hades.Signal{addr, dout}); err != nil {
		t.Fatal(err)
	}
	sim.Set(addr, 2, 1)
	if _, err := sim.Run(hades.TimeMax); err != nil {
		t.Fatal(err)
	}
	if dout.Int() != 7 {
		t.Fatalf("rom[2]=%d want 7", dout.Int())
	}
}

// TestMemoryOutOfRangeAddressHolds: on a 64-bit address signal, the word
// -1 is an address far past the depth, not an index — the RAM drops the
// write and neither read port drives its output.
func TestMemoryOutOfRangeAddressHolds(t *testing.T) {
	reg := DefaultRegistry()
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	addr := sim.NewSignal("addr", 64)
	din := sim.NewSignal("din", 32)
	we := sim.NewSignal("we", 1)
	ramOut := sim.NewSignal("ram.dout", 32)
	romOut := sim.NewSignal("rom.dout", 32)
	ramSpec, _ := reg.Lookup("ram")
	c, err := ramSpec.Build(sim, "m", Params{Width: 32, Depth: 4, Init: []int64{10, 20, 30, 40}},
		[]*hades.Signal{clk, addr, din, we, ramOut})
	if err != nil {
		t.Fatal(err)
	}
	ram := c.(*RAM)
	romSpec, _ := reg.Lookup("rom")
	if _, err := romSpec.Build(sim, "r", Params{Width: 32, Depth: 4, Init: []int64{5, 6, 7, 8}},
		[]*hades.Signal{addr, romOut}); err != nil {
		t.Fatal(err)
	}
	sim.Drive(we, 1)
	sim.Set(addr, -1, 1)
	sim.Set(din, 77, 1)
	sim.Set(clk, 1, 2)
	sim.Set(clk, 0, 7)
	if _, err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	if got := ram.Contents(); fmt.Sprint(got) != "[10 20 30 40]" {
		t.Fatalf("write at address -1 landed: %v", got)
	}
	if ramOut.Valid() || romOut.Valid() {
		t.Fatalf("read ports drove on address -1: ram %v, rom %v", ramOut, romOut)
	}
}

func TestStimulusAndSinkRoundTrip(t *testing.T) {
	reg := DefaultRegistry()
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	out := sim.NewSignal("out", 32)
	last := sim.NewSignal("last", 1)
	stSpec, _ := reg.Lookup("stim")
	vec := []int64{4, 5, 6}
	if _, err := stSpec.Build(sim, "s", Params{Width: 32, Init: vec},
		[]*hades.Signal{clk, out, last}); err != nil {
		t.Fatal(err)
	}
	skSpec, _ := reg.Lookup("sink")
	sk, err := skSpec.Build(sim, "k", Params{Width: 32},
		[]*hades.Signal{clk, out, nil})
	if err != nil {
		t.Fatal(err)
	}
	c := hades.NewClock("clk", clk, 10, 60)
	c.Start(sim)
	if _, err := sim.Run(hades.TimeMax); err != nil {
		t.Fatal(err)
	}
	rec := sk.(*Sink).Recorded()
	// The sink samples the stimulus value of the *previous* edge (the
	// stimulus drives its output in a delta after the edge), so the
	// recorded stream is the vector delayed by one cycle and held.
	want := []int64{4, 5, 6, 6, 6}
	if len(rec) < len(want) {
		t.Fatalf("recorded %v", rec)
	}
	for i, w := range want {
		if rec[i] != w {
			t.Fatalf("rec=%v want prefix %v", rec, want)
		}
	}
	if !last.Bool() {
		t.Fatal("last must assert at end of stream")
	}
}

func TestRegistryCompleteness(t *testing.T) {
	reg := DefaultRegistry()
	want := []string{
		"const", "neg", "not", "lnot", "b2i",
		"add", "sub", "mul", "div", "mod",
		"and", "or", "xor", "shl", "shr", "sra",
		"eq", "ne", "lt", "le", "gt", "ge",
		"mux", "reg", "ram", "rom", "stim", "sink",
	}
	for _, typ := range want {
		if _, ok := reg.Lookup(typ); !ok {
			t.Errorf("missing operator type %q", typ)
		}
	}
	if got := len(reg.Types()); got != len(want) {
		t.Errorf("registry has %d types, want %d", got, len(want))
	}
}

// TestDefaultRegistryBuiltOnce: every caller shares one table, so a
// lookup of the library allocates nothing.
func TestDefaultRegistryBuiltOnce(t *testing.T) {
	if DefaultRegistry() != DefaultRegistry() {
		t.Fatal("DefaultRegistry must return the one shared table")
	}
	if allocs := testing.AllocsPerRun(10, func() { DefaultRegistry() }); allocs != 0 {
		t.Fatalf("DefaultRegistry allocates %v objects per call, want 0", allocs)
	}
}

func TestAddrWidth(t *testing.T) {
	// The last three depths pin the top of the int range, where 1<<w
	// overflows.
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10, 4096: 12,
		1 << 62: 62, 1<<62 + 1: 63, math.MaxInt: 63}
	for depth, want := range cases {
		if got := AddrWidth(depth); got != want {
			t.Errorf("AddrWidth(%d)=%d want %d", depth, got, want)
		}
	}
}

func TestUnconnectedPortFailsElaboration(t *testing.T) {
	reg := DefaultRegistry()
	spec, _ := reg.Lookup("add")
	sim := hades.NewSimulator()
	a := sim.NewSignal("a", 32)
	_, err := spec.Build(sim, "a0", Params{Width: 32}, []*hades.Signal{a, nil, sim.NewSignal("y", 32)})
	if err == nil {
		t.Fatal("expected connection error")
	}
}

func TestRAMRequiresDepth(t *testing.T) {
	reg := DefaultRegistry()
	spec, _ := reg.Lookup("ram")
	sim := hades.NewSimulator()
	_, err := spec.Build(sim, "m", Params{Width: 32}, make([]*hades.Signal, 5))
	if err == nil {
		t.Fatal("expected depth error")
	}
}
