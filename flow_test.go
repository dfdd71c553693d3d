package repro_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/hdl"
	"repro/internal/memfile"
	"repro/internal/workloads"
	"repro/internal/xmlspec"
	"repro/internal/xsl"
)

// TestFigure1FlowComplete executes every arrow of the paper's Figure 1
// once on the FDCT2 design (the diagram's most general case: multiple
// configurations, shared memories, all three XML dialects):
//
//	compiler → datapath.xml / fsm.xml / rtg.xml
//	datapath.xml → datapath.dot, datapath.hds
//	fsm.xml      → fsm.dot, fsm.java
//	rtg.xml      → rtg.dot, rtg.java
//	I/O data (RAMs and stimulus) files → simulation → comparison
//
// plus the user-extensible HDL arrows (VHDL/Verilog).
func TestFigure1FlowComplete(t *testing.T) {
	dir := t.TempDir()
	src, sizes, args, inputs := workloads.FDCTCase("fdct2", 256, true, 5)
	tc := core.TestCase{
		Name: "fdct2", Source: src, Func: "fdct",
		ArraySizes: sizes, ScalarArgs: args, Inputs: inputs,
	}
	res, err := core.RunCase(tc, core.Options{WorkDir: dir, EmitArtifacts: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || !res.Passed {
		t.Fatalf("flow failed: %v %v", res.Err, res.Failed())
	}

	// Every Figure 1 artifact must exist and be non-trivial.
	expect := map[string]string{
		"rtg":              "<rtg",
		"datapath:fdct_p1": "<datapath",
		"datapath:fdct_p2": "<datapath",
		"fsm:fdct_p1_ctl":  "<fsm",
		"fsm:fdct_p2_ctl":  "<fsm",
		"dot:rtg":          "digraph",
		"dot:fdct_p1":      "digraph",
		"dot:fdct_p1_ctl":  "digraph",
		"hds:fdct_p1":      "[design]",
		"java:fdct_p1_ctl": "public class",
		"java:rtg":         "public class",
		"mem-in:img":       "",
		"mem:out":          "",
	}
	for label, marker := range expect {
		path, ok := res.Artifacts[label]
		if !ok {
			t.Errorf("missing Figure 1 artifact %q", label)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("artifact %q unreadable: %v", label, err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("artifact %q empty", label)
		}
		if marker != "" && !strings.Contains(string(data), marker) {
			t.Errorf("artifact %q lacks marker %q", label, marker)
		}
	}

	// The written design bundle must load back and still validate.
	design, err := xmlspec.LoadDesign(filepath.Join(dir, "fdct2"))
	if err != nil {
		t.Fatal(err)
	}

	// HDL arrows (the "chosen language" extension point).
	for name, dp := range design.Datapaths {
		if out, err := hdl.VHDLDatapath(dp, nil); err != nil || !strings.Contains(out, "entity") {
			t.Errorf("VHDL for %s: %v", name, err)
		}
		if out, err := hdl.VerilogDatapath(dp, nil); err != nil || !strings.Contains(out, "module") {
			t.Errorf("Verilog for %s: %v", name, err)
		}
	}
	for name, fsm := range design.FSMs {
		if out, err := hdl.VHDLFSM(fsm); err != nil || !strings.Contains(out, "entity") {
			t.Errorf("VHDL FSM for %s: %v", name, err)
		}
		if out, err := hdl.VerilogFSM(fsm); err != nil || !strings.Contains(out, "module") {
			t.Errorf("Verilog FSM for %s: %v", name, err)
		}
	}

	// Memory-file round trip: the simulated output file re-loads and
	// matches what the verification compared in memory.
	out, err := memfile.Load(res.Artifacts["mem:out"])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != sizes["out"] {
		t.Fatalf("out.mem has %d words, want %d", len(out), sizes["out"])
	}

	// The generic stylesheet engine handles the written files directly
	// (user-defined rules path).
	raw, err := os.ReadFile(res.Artifacts["datapath:fdct_p1"])
	if err != nil {
		t.Fatal(err)
	}
	root, err := xsl.Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	sheet := &xsl.Stylesheet{Rules: []xsl.Rule{
		{Match: "datapath", Template: "{@name}: {count:operators/operator} operators\n"},
	}}
	summary, err := xsl.Transform(sheet, root)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "fdct_p1:") {
		t.Fatalf("summary=%q", summary)
	}
}

// TestTableIShape asserts the qualitative relationships of Table I that
// the paper's evaluation establishes, at reduced image size so the check
// stays fast in the regular test run:
//
//   - FDCT2 partitions each have roughly half of FDCT1's operators and
//     size columns (paper: 169 vs 90/90).
//   - Hamming is far smaller than either FDCT on every column.
//   - Each FDCT2 partition simulates in well under FDCT1's time.
//
// The simulation-time check compares wall clocks, so it samples them the
// way the gang throughput test does: one untimed warm-up, then the three
// cases in alternation for five rounds, keeping each partition's best
// SimWall. Its deterministic twin compares simulated events.
func TestTableIShape(t *testing.T) {
	run := func(tc core.TestCase) *core.CaseResult {
		t.Helper()
		res, err := core.RunCase(tc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil || !res.Passed {
			t.Fatalf("%s failed: %v %v", tc.Name, res.Err, res.Failed())
		}
		return res
	}
	cases := []core.TestCase{
		fdctTestCase("fdct1", 1024, false),
		fdctTestCase("fdct2", 1024, true),
		hammingTestCase(64),
	}
	results := make([]*core.CaseResult, len(cases))
	for i, tc := range cases {
		results[i] = run(tc) // warm-up
	}
	for round := 0; round < 5; round++ {
		for i, tc := range cases {
			res := run(tc)
			for j := range res.Partitions {
				results[i].Partitions[j].SimWall = min(results[i].Partitions[j].SimWall, res.Partitions[j].SimWall)
			}
		}
	}
	fdct1, fdct2, hamming := results[0], results[1], results[2]
	loc := func(res *core.CaseResult) []flow.PartitionLoC {
		t.Helper()
		l, err := res.Compiled.LoC()
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	f1LoC, f2LoC := loc(fdct1)[0], loc(fdct2)

	f1 := fdct1.Partitions[0]
	for i, p := range fdct2.Partitions {
		if ratio := float64(f1.Operators) / float64(p.Operators); ratio < 1.5 || ratio > 2.6 {
			t.Errorf("operators ratio FDCT1/%s = %.2f, want ~2 (paper: 169/90)", p.ID, ratio)
		}
		if f2LoC[i].XMLDatapathLoC >= f1LoC.XMLDatapathLoC {
			t.Errorf("partition %s datapath XML not smaller than FDCT1", p.ID)
		}
		if p.SimWall >= f1.SimWall {
			t.Errorf("partition %s sim time %v not below FDCT1 %v", p.ID, p.SimWall, f1.SimWall)
		}
		if p.SimulatedEvents >= f1.SimulatedEvents {
			t.Errorf("partition %s simulated %d events, not below FDCT1's %d", p.ID, p.SimulatedEvents, f1.SimulatedEvents)
		}
	}
	h := hamming.Partitions[0]
	if h.Operators*2 >= f1.Operators {
		t.Errorf("hamming operators %d not far below FDCT1 %d", h.Operators, f1.Operators)
	}
	if h.SimWall >= f1.SimWall {
		t.Errorf("hamming sim %v not below FDCT1 %v", h.SimWall, f1.SimWall)
	}
	if h.SimulatedEvents >= f1.SimulatedEvents {
		t.Errorf("hamming simulated %d events, not below FDCT1's %d", h.SimulatedEvents, f1.SimulatedEvents)
	}
}

// TestScalingIsRoughlyLinear checks the in-text claim's shape cheaply:
// quadrupling the image quadruples the simulated cycle count (wall time
// is too noisy for CI, cycles are exact).
func TestScalingIsRoughlyLinear(t *testing.T) {
	cycles := func(pixels int) uint64 {
		res, err := core.RunCase(fdctTestCase("fdct1", pixels, false), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil || !res.Passed {
			t.Fatalf("failed: %v", res.Err)
		}
		return res.Partitions[0].Cycles
	}
	c1 := cycles(512)
	c4 := cycles(2048)
	ratio := float64(c4) / float64(c1)
	if ratio < 3.8 || ratio > 4.2 {
		t.Fatalf("cycle ratio %0.2f for 4x pixels, want ~4 (linear)", ratio)
	}
}
