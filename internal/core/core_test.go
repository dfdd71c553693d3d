package core

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/workloads"
)

func fdctCase(t *testing.T, name string, pixels int, two bool) TestCase {
	t.Helper()
	src, sizes, args, inputs := workloads.FDCTCase(name, pixels, two, 42)
	return TestCase{
		Name: name, Source: src, Func: "fdct",
		ArraySizes: sizes, ScalarArgs: args, Inputs: inputs,
	}
}

func hammingCase(name string, n int) TestCase {
	sizes, args, inputs, expected := workloads.HammingCase(n, 9)
	return TestCase{
		Name: name, Source: workloads.HammingSource, Func: "hamming",
		ArraySizes: sizes, ScalarArgs: args, Inputs: inputs,
		Expected: map[string][]int64{"out": expected},
	}
}

func TestRunCaseFDCT1Small(t *testing.T) {
	res, err := RunCase(fdctCase(t, "fdct1", 128, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Passed {
		t.Fatalf("mismatches: %v", res.Failed())
	}
	if len(res.Partitions) != 1 {
		t.Fatalf("partitions=%d", len(res.Partitions))
	}
	p := res.Partitions[0]
	if p.Operators < 100 {
		t.Fatalf("operators=%d suspiciously few for FDCT", p.Operators)
	}
	loc, err := res.Compiled.LoC()
	if err != nil {
		t.Fatal(err)
	}
	if l := loc[0]; l.XMLDatapathLoC <= l.XMLFSMLoC {
		t.Fatalf("datapath XML (%d) should dominate FSM XML (%d)", l.XMLDatapathLoC, l.XMLFSMLoC)
	}
	if p.Cycles == 0 || p.SimWall == 0 {
		t.Fatalf("stats=%+v", p)
	}
	if res.SourceLoC < 40 {
		t.Fatalf("source LoC=%d", res.SourceLoC)
	}
}

func TestRunCaseFDCT2TwoPartitions(t *testing.T) {
	res, err := RunCase(fdctCase(t, "fdct2", 128, true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || res.Err != nil {
		t.Fatalf("res=%+v", res)
	}
	if len(res.Partitions) != 2 {
		t.Fatalf("partitions=%d", len(res.Partitions))
	}
	// Each FDCT2 partition must be roughly half of FDCT1 (paper: 169 vs
	// 90/90 operators).
	fdct1, err := RunCase(fdctCase(t, "fdct1", 128, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	total1 := fdct1.Partitions[0].Operators
	for _, p := range res.Partitions {
		if p.Operators >= total1 {
			t.Fatalf("partition %s (%d ops) not smaller than FDCT1 (%d)", p.ID, p.Operators, total1)
		}
		if p.Operators < total1/3 {
			t.Fatalf("partition %s (%d ops) implausibly small vs FDCT1 (%d)", p.ID, p.Operators, total1)
		}
	}
}

func TestRunCaseHamming(t *testing.T) {
	res, err := RunCase(hammingCase("hamming", 32), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed || res.Err != nil {
		t.Fatalf("res=%+v mism=%v", res, res.Mismatches)
	}
	if len(res.Partitions) != 1 {
		t.Fatalf("partitions=%d", len(res.Partitions))
	}
}

func TestHammingSmallerThanFDCT(t *testing.T) {
	// Table I ordering: Hamming is far smaller than the FDCTs on every
	// size column.
	h, err := RunCase(hammingCase("hamming", 16), Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := RunCase(fdctCase(t, "fdct1", 128, false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	hp, fp := h.Partitions[0], f.Partitions[0]
	if hp.Operators >= fp.Operators {
		t.Fatalf("hamming ops %d !< fdct ops %d", hp.Operators, fp.Operators)
	}
	hLoC, err := h.Compiled.LoC()
	if err != nil {
		t.Fatal(err)
	}
	fLoC, err := f.Compiled.LoC()
	if err != nil {
		t.Fatal(err)
	}
	hl, fl := hLoC[0], fLoC[0]
	if hl.XMLDatapathLoC >= fl.XMLDatapathLoC {
		t.Fatalf("hamming dp xml %d !< fdct %d", hl.XMLDatapathLoC, fl.XMLDatapathLoC)
	}
	if hl.JavaFSMLoC >= fl.JavaFSMLoC {
		t.Fatalf("hamming java %d !< fdct %d", hl.JavaFSMLoC, fl.JavaFSMLoC)
	}
}

func TestRunCaseEmitsArtifacts(t *testing.T) {
	dir := t.TempDir()
	tc := hammingCase("hamming", 8)
	res, err := RunCase(tc, Options{WorkDir: dir, EmitArtifacts: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed {
		t.Fatal("case failed")
	}
	for _, label := range []string{
		"rtg", "datapath:hamming_p1", "fsm:hamming_p1_ctl",
		"dot:rtg", "java:rtg", "dot:hamming_p1", "hds:hamming_p1",
		"dot:hamming_p1_ctl", "java:hamming_p1_ctl",
		"mem-in:in", "mem:out",
	} {
		path, ok := res.Artifacts[label]
		if !ok {
			t.Errorf("missing artifact %q (have %v)", label, keys(res.Artifacts))
			continue
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("artifact %q empty or missing: %v", label, err)
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestRunCaseDetectsInjectedMismatch(t *testing.T) {
	tc := hammingCase("bad", 8)
	// Corrupt the pinned expectation: the infrastructure must flag it.
	tc.Expected["out"][3] ^= 1
	res, err := RunCase(tc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed {
		t.Fatal("corrupted expectation must fail")
	}
	ms := res.Mismatches["out"]
	if len(ms) != 1 || ms[0].Addr != 3 {
		t.Fatalf("mismatches=%v", ms)
	}
}

func TestRunCaseIncompleteSimulationReported(t *testing.T) {
	res, err := RunCase(hammingCase("tiny", 8), Options{MaxCycles: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil || !strings.Contains(res.Err.Error(), "incomplete") {
		t.Fatalf("res.Err=%v", res.Err)
	}
	if res.Passed {
		t.Fatal("incomplete run cannot pass")
	}
}

func TestSuiteRunAndReport(t *testing.T) {
	s := &Suite{
		Name: "regression",
		Cases: []TestCase{
			hammingCase("hamming", 8),
			fdctCase(t, "fdct1", 64, false),
		},
	}
	res := s.Run(Options{})
	if !res.Passed() {
		t.Fatalf("suite failed: %+v", res.Results)
	}
	passed, failed := res.Counts()
	if passed != 2 || failed != 0 {
		t.Fatalf("passed=%d failed=%d", passed, failed)
	}
	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	for _, want := range []string{"suite regression", "hamming", "fdct1", "PASS", "2 passed, 0 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteReportsFailuresWithoutAborting(t *testing.T) {
	bad := hammingCase("corrupted", 8)
	bad.Expected["out"][0] ^= 3
	s := &Suite{
		Name: "mixed",
		Cases: []TestCase{
			bad,
			hammingCase("good", 8),
			{Name: "broken", Source: "void f( {", Func: "f"},
		},
	}
	res := s.Run(Options{})
	if res.Passed() {
		t.Fatal("suite must fail")
	}
	passed, failed := res.Counts()
	if passed != 1 || failed != 2 {
		t.Fatalf("passed=%d failed=%d", passed, failed)
	}
	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	for _, want := range []string{"FAIL", "ERROR", "1 passed, 2 failed", "mismatch"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestZeroOptionsObserveFlowDefaults is the defaults-dedup contract:
// a zero core.Options resolves to exactly the flow constants — core
// holds no defaults of its own. Together with the rtg strictness test
// (rtg.TestOptionsRequireExplicitBounds) and the CLI flag test
// (cliutil.TestFlowFlagsDefaultsAreTheFlowDefaults), this pins the
// single source of truth: core, rtg and cmd/hsim all observe the same
// ClockPeriod/MaxCycles.
func TestZeroOptionsObserveFlowDefaults(t *testing.T) {
	p, err := flow.New(Options{}.FlowOptions(nil)...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.ClockPeriod != flow.DefaultClockPeriod {
		t.Errorf("ClockPeriod=%v want %v", cfg.ClockPeriod, flow.DefaultClockPeriod)
	}
	if cfg.MaxCycles != flow.DefaultMaxCycles {
		t.Errorf("MaxCycles=%v want %v", cfg.MaxCycles, flow.DefaultMaxCycles)
	}
	if cfg.MaxConfigs != flow.DefaultMaxConfigs {
		t.Errorf("MaxConfigs=%v want %v", cfg.MaxConfigs, flow.DefaultMaxConfigs)
	}
	if cfg.Backend != flow.DefaultBackend {
		t.Errorf("Backend=%q want %q", cfg.Backend, flow.DefaultBackend)
	}
	// Explicit values still pass through.
	p2, err := flow.New(Options{ClockPeriod: 4, MaxCycles: 123, Backend: "compiled"}.FlowOptions(nil)...)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := p2.Config()
	if cfg2.ClockPeriod != 4 || cfg2.MaxCycles != 123 || cfg2.Backend != "compiled" {
		t.Fatalf("cfg2=%+v", cfg2)
	}
}

// TestSuitePassesUnderEveryBackend runs the hamming regression case on
// every backend — the suite-level acceptance of the backend choice
// (`testsuite -backend compiled` in miniature).
func TestSuitePassesUnderEveryBackend(t *testing.T) {
	for _, backend := range flow.Backends() {
		s := &Suite{Name: "backend-" + backend.Name, Cases: []TestCase{hammingCase("hamming", 16)}}
		res := s.Run(Options{Backend: backend.Name})
		if !res.Passed() {
			t.Fatalf("%s: suite failed: %+v", backend.Name, res.Results[0].Err)
		}
		if res.TotalEvents == 0 {
			t.Fatalf("%s: no events recorded", backend.Name)
		}
	}
}

// TestCaseObserversStream: reporting is a sink, not a result field —
// per-case observers see each configuration complete.
func TestCaseObserversStream(t *testing.T) {
	var lines bytes.Buffer
	opts := Options{Observers: []flow.Observer{flow.NewProgressObserver(&lines)}}
	res, err := RunCase(hammingCase("hamming", 16), opts)
	if err != nil || !res.OK() {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(lines.String(), "configuration") {
		t.Fatalf("observer saw %q", lines.String())
	}
}

// TestRunCaseRepeatReplays pins the verify-sweep shape: one prepared
// design, several verified rounds, the case reporting how many replays
// it served, with a multi-partition design in the loop.
func TestRunCaseRepeatReplays(t *testing.T) {
	res, err := RunCaseRepeatContext(nil, fdctCase(t, "fdct2", 128, true), Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || !res.Passed {
		t.Fatalf("repeat run failed: err=%v mismatches=%v", res.Err, res.Failed())
	}
	if res.Replays != 3 {
		t.Fatalf("Replays=%d want 3", res.Replays)
	}
	if len(res.Partitions) != 2 || res.Partitions[0].SimulatedEvents == 0 {
		t.Fatalf("partitions=%+v", res.Partitions)
	}
}
