package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/xmlspec"
)

// dumpHandcrafted simulates the examples/handcrafted accumulator with
// the given stimulus and dumps every signal to a VCD file, exactly as
// the example and hsim -vcd do.
func dumpHandcrafted(t *testing.T, path string, stimulus []int64) {
	t.Helper()
	dp := &xmlspec.Datapath{
		Name:  "acc",
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "src", Type: "stim"},
			{ID: "r_acc", Type: "reg"},
			{ID: "add0", Type: "add"},
			{ID: "cap", Type: "sink"},
		},
		Connections: []xmlspec.Connection{
			{From: "r_acc.q", To: "add0.a"},
			{From: "src.out", To: "add0.b"},
			{From: "add0.y", To: "r_acc.d"},
			{From: "r_acc.q", To: "cap.in"},
		},
		Controls: []xmlspec.Control{
			{Name: "en_acc", Targets: []xmlspec.ControlTo{{Port: "r_acc.en"}}},
			{Name: "en_cap", Targets: []xmlspec.ControlTo{{Port: "cap.en"}}},
		},
		Statuses: []xmlspec.Status{{Name: "last", From: "src.last"}},
	}
	fsm := &xmlspec.FSM{
		Name:    "acc_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "last"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en_acc"}, {Name: "en_cap"}, {Name: "done"}},
		States: []xmlspec.State{
			{
				Name: "RUN", Initial: true,
				Assigns: []xmlspec.Assign{
					{Signal: "en_acc", Value: 1},
					{Signal: "en_cap", Value: 1},
				},
				Transitions: []xmlspec.Transition{
					{Cond: "!last", Next: "RUN"},
					{Next: "END"},
				},
			},
			{Name: "END", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	plan, err := netlist.Resolve(dp, fsm)
	if err != nil {
		t.Fatal(err)
	}
	el, err := netlist.Elaborate(sim, clk, plan, map[string][]int64{"src": stimulus})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := hades.NewVCDWriter(f)
	w.AddAll(sim)
	w.Header("acc")
	if _, err := el.RunToCompletion(10, 1000); err != nil {
		t.Fatal(err)
	}
}

func TestVCDDiffIdentical(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.vcd")
	b := filepath.Join(dir, "b.vcd")
	stim := []int64{5, 10, 20, 40}
	dumpHandcrafted(t, a, stim)
	dumpHandcrafted(t, b, stim)
	var sb strings.Builder
	diffs, err := run([]string{a, b}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if diffs != 0 || !strings.Contains(sb.String(), "identical signal activity") {
		t.Fatalf("diffs=%d out=%q", diffs, sb.String())
	}
}

func TestVCDDiffDiverging(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.vcd")
	b := filepath.Join(dir, "b.vcd")
	dumpHandcrafted(t, a, []int64{5, 10, 20, 40})
	dumpHandcrafted(t, b, []int64{5, 10, 21, 40})
	var sb strings.Builder
	diffs, err := run([]string{a, b}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if diffs == 0 {
		t.Fatalf("diverging stimulus must diff, out=%q", sb.String())
	}
	if !strings.Contains(sb.String(), "difference(s)") {
		t.Fatalf("out=%q", sb.String())
	}
	// -max bounds the report.
	var capped strings.Builder
	cappedDiffs, err := run([]string{"-max", "1", a, b}, &capped)
	if err != nil {
		t.Fatal(err)
	}
	if cappedDiffs != 1 {
		t.Fatalf("capped diffs=%d want 1", cappedDiffs)
	}
}

func TestVCDDiffErrors(t *testing.T) {
	if _, err := run([]string{"only-one.vcd"}, &strings.Builder{}); err == nil {
		t.Error("one argument must fail with usage")
	}
	if _, err := run([]string{"nope1.vcd", "nope2.vcd"}, &strings.Builder{}); err == nil {
		t.Error("unreadable inputs must fail")
	}
}
