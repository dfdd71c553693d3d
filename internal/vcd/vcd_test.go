package vcd

import (
	"strings"
	"testing"

	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/xmlspec"
)

const sample = `$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var wire 8 " bus $end
$upscope $end
$enddefinitions $end
$dumpvars
0!
bx "
$end
#5
1!
b10101011 "
#10
0!
#15
1!
b1 "
`

func TestParseSample(t *testing.T) {
	d, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if d.Timescale != "1ns" || d.Scope != "top" || d.End != 15 {
		t.Fatalf("meta=%+v", d)
	}
	names := d.Names()
	if len(names) != 2 || names[0] != "bus" || names[1] != "clk" {
		t.Fatalf("names=%v", names)
	}
	clk := d.Waves["clk"]
	if len(clk.Changes) != 4 {
		t.Fatalf("clk changes=%v", clk.Changes)
	}
	if v, ok := clk.ValueAt(7); !ok || v != 1 {
		t.Fatalf("clk@7=%d,%v", v, ok)
	}
	if v, ok := clk.ValueAt(12); !ok || v != 0 {
		t.Fatalf("clk@12=%d,%v", v, ok)
	}
	bus := d.Waves["bus"]
	if _, ok := bus.ValueAt(2); ok {
		t.Fatal("bus must be undefined before #5")
	}
	if v, ok := bus.ValueAt(9); !ok || v != 0xAB {
		t.Fatalf("bus@9=%#x,%v", v, ok)
	}
	if v, ok := bus.ValueAt(20); !ok || v != 1 {
		t.Fatalf("bus@20=%d,%v", v, ok)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"$var wire x ! a $end\n$enddefinitions $end\n",
		"$var wire 1 ! a $end\n$enddefinitions $end\n#z\n",
		"$var wire 1 ! a $end\n$enddefinitions $end\n1?\n",
		"$var wire 1 ! a $end\n$enddefinitions $end\nq!\n",
		"$var wire 1 ! a $end\n$enddefinitions $end\nb10!\n",
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("Parse(%q) must fail", src)
		}
	}
}

func TestCompareEqualAndDiverged(t *testing.T) {
	a, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Compare(a, b, 0); len(diffs) != 0 {
		t.Fatalf("identical dumps diff: %v", diffs)
	}
	// Perturb one change.
	b.Waves["bus"].Changes[1].Value = 0xFF
	diffs := Compare(a, b, 0)
	if len(diffs) == 0 {
		t.Fatal("divergence not detected")
	}
	if diffs[0].Signal != "bus" || diffs[0].At != 5 {
		t.Fatalf("diffs=%v", diffs)
	}
	if got := Compare(a, b, 1); len(got) != 1 {
		t.Fatalf("cap ignored: %v", got)
	}
}

func TestCompareMissingSignal(t *testing.T) {
	a, _ := Parse(strings.NewReader(sample))
	b, _ := Parse(strings.NewReader(sample))
	delete(b.Waves, "bus")
	diffs := Compare(a, b, 0)
	if len(diffs) != 1 || diffs[0].At != -1 || diffs[0].B != "missing" {
		t.Fatalf("diffs=%v", diffs)
	}
	if !strings.Contains(diffs[0].String(), "bus@-1") {
		t.Fatalf("render=%q", diffs[0].String())
	}
}

// TestRoundTripFromKernel closes the loop: run a real design with
// hades.VCDWriter, parse the dump back, and check the waveform matches
// the live signals' recorded history.
func TestRoundTripFromKernel(t *testing.T) {
	dp := &xmlspec.Datapath{
		Name:  "count",
		Width: 8,
		Operators: []xmlspec.Operator{
			{ID: "c1", Type: "const", Value: 1},
			{ID: "cn", Type: "const", Value: 5},
			{ID: "r_i", Type: "reg"},
			{ID: "add0", Type: "add"},
			{ID: "lt0", Type: "lt"},
		},
		Connections: []xmlspec.Connection{
			{From: "r_i.q", To: "add0.a"},
			{From: "c1.y", To: "add0.b"},
			{From: "add0.y", To: "r_i.d"},
			{From: "r_i.q", To: "lt0.a"},
			{From: "cn.y", To: "lt0.b"},
		},
		Controls: []xmlspec.Control{{Name: "en", Targets: []xmlspec.ControlTo{{Port: "r_i.en"}}}},
		Statuses: []xmlspec.Status{{Name: "lt", From: "lt0.y"}},
	}
	fsm := &xmlspec.FSM{
		Name:    "count_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "lt"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en"}, {Name: "done"}},
		States: []xmlspec.State{
			{Name: "RUN", Initial: true,
				Assigns:     []xmlspec.Assign{{Signal: "en", Value: 1}},
				Transitions: []xmlspec.Transition{{Cond: "lt", Next: "RUN"}, {Next: "END"}}},
			{Name: "END", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	plan, err := netlist.Resolve(dp, fsm)
	if err != nil {
		t.Fatal(err)
	}
	el, err := netlist.Elaborate(sim, clk, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	w := hades.NewVCDWriter(&buf)
	w.AddAll(sim)
	w.Header("count")
	probe := hades.NewProbe(el.Signal("r_i.q"), 0)
	if _, err := el.RunToCompletion(10, 100); err != nil {
		t.Fatal(err)
	}
	if w.Err() != nil {
		t.Fatal(w.Err())
	}

	dump, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	wave, ok := dump.Waves["count.r_i.q"]
	if !ok {
		t.Fatalf("r_i.q missing from dump: %v", dump.Names())
	}
	if wave.Width != 8 {
		t.Fatalf("width=%d", wave.Width)
	}
	// Every probed transition must appear in the parsed waveform with
	// the same value at the same instant.
	for _, c := range probe.History() {
		v, defined := wave.ValueAt(int64(c.At))
		if !defined || int64(v) != c.Value {
			t.Fatalf("r_i.q@%d: vcd=%d,%v probe=%d", c.At, v, defined, c.Value)
		}
	}
	if len(probe.History()) < 5 {
		t.Fatalf("counter barely ran: %v", probe.History())
	}
	// done asserts at the end in the dump as well.
	done := dump.Waves["count.ctl.done"]
	if done == nil {
		t.Fatalf("done missing: %v", dump.Names())
	}
	if v, ok := done.ValueAt(dump.End); !ok || v != 1 {
		t.Fatalf("done@end=%d,%v", v, ok)
	}
}
