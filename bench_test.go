package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/hades"
	"repro/internal/hdl"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/workloads"
	"repro/internal/xmlspec"
	"repro/internal/xsl"
)

// --- Table I ------------------------------------------------------------
//
// Each BenchmarkTableI_* regenerates one row of the paper's Table I:
// compile the workload, simulate the generated architecture with the
// paper's parameters (FDCT: 4,096-pixel image = 64 DCT blocks, three
// SRAMs; Hamming: a codeword stream), verify against the golden
// algorithm, and report the size columns as benchmark metrics. The
// simulation wall time is the benchmark's ns/op counterpart of the
// paper's "Simulation time (s)" column.

func fdctTestCase(name string, pixels int, two bool) core.TestCase {
	src, sizes, args, inputs := workloads.FDCTCase(name, pixels, two, 42)
	return core.TestCase{Name: name, Source: src, Func: "fdct",
		ArraySizes: sizes, ScalarArgs: args, Inputs: inputs}
}

func hammingTestCase(words int) core.TestCase {
	sizes, args, inputs, expected := workloads.HammingCase(words, 9)
	return core.TestCase{Name: "hamming", Source: workloads.HammingSource, Func: "hamming",
		ArraySizes: sizes, ScalarArgs: args, Inputs: inputs,
		Expected: map[string][]int64{"out": expected}}
}

func runTableIRow(b *testing.B, tc core.TestCase) {
	b.Helper()
	var last *core.CaseResult
	for i := 0; i < b.N; i++ {
		res, err := core.RunCase(tc, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Err != nil {
			b.Fatal(res.Err)
		}
		if !res.Passed {
			b.Fatalf("verification failed: %v", res.Failed())
		}
		last = res
	}
	loc, err := last.Compiled.LoC()
	if err != nil {
		b.Fatal(err)
	}
	ops, cycles := 0, uint64(0)
	dpLoC, fsmLoC, javaLoC := 0, 0, 0
	for i, p := range last.Partitions {
		ops += p.Operators
		cycles += p.Cycles
		dpLoC += loc[i].XMLDatapathLoC
		fsmLoC += loc[i].XMLFSMLoC
		javaLoC += loc[i].JavaFSMLoC
	}
	b.ReportMetric(float64(ops), "operators")
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(last.SourceLoC), "loJava")
	b.ReportMetric(float64(dpLoC), "loXMLdp")
	b.ReportMetric(float64(fsmLoC), "loXMLfsm")
	b.ReportMetric(float64(javaLoC), "loJavaFSM")
	b.ReportMetric(float64(len(last.Partitions)), "configs")
}

func BenchmarkTableI_FDCT1(b *testing.B) {
	runTableIRow(b, fdctTestCase("fdct1", 4096, false))
}

func BenchmarkTableI_FDCT2(b *testing.B) {
	runTableIRow(b, fdctTestCase("fdct2", 4096, true))
}

func BenchmarkTableI_Hamming(b *testing.B) {
	runTableIRow(b, hammingTestCase(64))
}

// --- In-text scaling claim ----------------------------------------------
//
// "With images of 65,536 and 345,600 pixels, FDCT1 is simulated in 1 and
// 6.5 minutes, respectively." — simulation time must grow linearly with
// the pixel count. BenchmarkFDCT1_Scaling regenerates the series for the
// paper's three image sizes.

func BenchmarkFDCT1_Scaling(b *testing.B) {
	for _, pixels := range []int{4096, 65536, 345600} {
		b.Run(fmt.Sprintf("pixels=%d", pixels), func(b *testing.B) {
			tc := fdctTestCase("fdct1", pixels, false)
			for i := 0; i < b.N; i++ {
				res, err := core.RunCase(tc, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != nil || !res.Passed {
					b.Fatalf("failed: %v %v", res.Err, res.Failed())
				}
				b.ReportMetric(float64(res.Partitions[0].Cycles), "cycles")
				b.ReportMetric(float64(pixels)/res.SimWall.Seconds(), "pixels/s")
			}
		})
	}
}

// --- Figure 1 ------------------------------------------------------------
//
// Figure 1 is the infrastructure diagram; BenchmarkFigure1Translations
// times its translation arrows (datapath/fsm/rtg XML → dot, hds, java)
// on the FDCT1 design. TestFigure1FlowComplete in flow_test.go executes
// every arrow once and checks the outputs.

func BenchmarkFigure1Translations(b *testing.B) {
	tc := fdctTestCase("fdct1", 4096, false)
	design := compileDesign(b, tc)
	dpDoc := marshal(b, design.Datapaths["fdct_p1"])
	fsmDoc := marshal(b, design.FSMs["fdct_p1_ctl"])
	rtgDoc := marshal(b, design.RTG)

	b.Run("datapath-to-dot", benchTransform(xsl.DatapathToDot(), dpDoc))
	b.Run("datapath-to-hds", benchTransform(xsl.DatapathToHDS(), dpDoc))
	b.Run("fsm-to-dot", benchTransform(xsl.FSMToDot(), fsmDoc))
	b.Run("fsm-to-java", benchTransform(xsl.FSMToJava(), fsmDoc))
	b.Run("rtg-to-dot", benchTransform(xsl.RTGToDot(), rtgDoc))
	b.Run("rtg-to-java", benchTransform(xsl.RTGToJava(), rtgDoc))
	b.Run("datapath-to-vhdl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hdl.VHDLDatapath(design.Datapaths["fdct_p1"], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("datapath-to-verilog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hdl.VerilogDatapath(design.Datapaths["fdct_p1"], nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchTransform(sheet *xsl.Stylesheet, doc []byte) func(*testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := xsl.TransformBytes(sheet, doc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Suite parallelism ----------------------------------------------------
//
// BenchmarkSuiteParallel tracks the runner's scaling: the same
// multi-case suite sharded across 1/2/4/8 workers. The reported
// "speedup" metric is sum-of-case-walls over suite wall; the ns/op
// trajectory across the sub-benchmarks is the paper's "feasible time"
// claim as a perf series.
func BenchmarkSuiteParallel(b *testing.B) {
	suite := &core.Suite{Name: "parallel"}
	for i := 0; i < 8; i++ {
		suite.Cases = append(suite.Cases, fdctTestCase(fmt.Sprintf("fdct1_%d", i), 1024, false))
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := &core.Runner{Workers: workers}
			var speedup float64
			for i := 0; i < b.N; i++ {
				res := r.Run(context.Background(), suite, core.Options{})
				if !res.Passed() {
					b.Fatalf("suite failed: %+v", res.Results)
				}
				speedup = res.Speedup
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// --- Ablations ------------------------------------------------------------
//
// Design-choice ablations called out in DESIGN.md: monolithic vs
// partitioned simulation, probe overhead, golden-reference cost, and the
// raw event-kernel throughput that underlies all simulation times.

// BenchmarkAblationMonolithicVsPartitioned contrasts FDCT1 and FDCT2
// end-to-end (the paper's 6.9s vs 2.9+2.9s comparison).
func BenchmarkAblationMonolithicVsPartitioned(b *testing.B) {
	b.Run("monolithic", func(b *testing.B) {
		tc := fdctTestCase("fdct1", 1024, false)
		for i := 0; i < b.N; i++ {
			mustPass(b, tc)
		}
	})
	b.Run("partitioned", func(b *testing.B) {
		tc := fdctTestCase("fdct2", 1024, true)
		for i := 0; i < b.N; i++ {
			mustPass(b, tc)
		}
	})
}

// BenchmarkAblationProbeOverhead measures the cost of full observability
// (a probe on every wire) versus a bare run.
func BenchmarkAblationProbeOverhead(b *testing.B) {
	tc := fdctTestCase("fdct1", 512, false)
	design := compileDesign(b, tc)
	run := func(b *testing.B, opts ...flow.Option) {
		pipe, err := flow.New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			d := prepareSeeded(b, pipe, design, tc)
			res, err := d.Simulate()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatal("incomplete")
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b) })
	b.Run("probe-every-wire", func(b *testing.B) {
		run(b, flow.WithObserver(probeAllObserver{}))
	})
}

// prepareSeeded prepares a compiled design (elaborating it, as every
// iteration of the ablations pays) and seeds it with the case's inputs.
func prepareSeeded(b *testing.B, pipe *flow.Pipeline, design *xmlspec.Design, tc core.TestCase) *flow.PreparedDesign {
	d, err := pipe.PrepareDesign(design)
	if err != nil {
		b.Fatal(err)
	}
	for name, words := range tc.Inputs {
		if err := d.SetSeed(name, words); err != nil {
			b.Fatal(err)
		}
	}
	return d
}

// BenchmarkAblationGoldenReference contrasts the two sides of the
// verification contract on the same workload: the event-driven RTL
// simulation versus the direct golden-algorithm execution.
func BenchmarkAblationGoldenReference(b *testing.B) {
	tc := fdctTestCase("fdct1", 4096, false)
	b.Run("simulator", func(b *testing.B) {
		design := compileDesign(b, tc)
		pipe, err := flow.New()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			d := prepareSeeded(b, pipe, design, tc)
			if res, err := d.Simulate(); err != nil || !res.Completed {
				b.Fatalf("err=%v", err)
			}
		}
	})
	b.Run("interpreter", func(b *testing.B) {
		prog, err := lang.Parse(tc.Source)
		if err != nil {
			b.Fatal(err)
		}
		f, _ := prog.FindFunc(tc.Func)
		for i := 0; i < b.N; i++ {
			mems := map[string][]int64{}
			for name, depth := range tc.ArraySizes {
				mems[name] = padded(tc.Inputs[name], depth)
			}
			if _, err := interp.Run(f, mems, tc.ScalarArgs, interp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEventKernelThroughput measures raw kernel event throughput on
// a register pipeline — the substrate number behind every simulation
// time in the evaluation.
func BenchmarkEventKernelThroughput(b *testing.B) {
	const stages = 64
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	sigs := make([]*hades.Signal, stages+1)
	for i := range sigs {
		sigs[i] = sim.NewSignal(fmt.Sprintf("s%d", i), 32)
	}
	reg, _ := operators.DefaultRegistry().Lookup("reg")
	for i := 0; i < stages; i++ {
		if _, err := reg.Build(sim, fmt.Sprintf("r%d", i), operators.Params{Width: 32},
			[]*hades.Signal{clk, sigs[i], sigs[i+1], nil, nil}); err != nil {
			b.Fatal(err)
		}
	}
	clock := hades.NewClock("clk", clk, 10, hades.TimeMax)
	clock.Start(sim)
	b.ResetTimer()
	var fed int64
	for i := 0; i < b.N; i++ {
		fed++
		sim.Set(sigs[0], fed, 0)
		if _, err := sim.Run(sim.Now() + 10); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sim.Stats().Events)/float64(b.N), "events/op")
}

// --- helpers ---------------------------------------------------------------

func compileDesign(b *testing.B, tc core.TestCase) *xmlspec.Design {
	b.Helper()
	design, err := core.CompileOnly(tc, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return design
}

func marshal(b *testing.B, v interface{}) []byte {
	b.Helper()
	doc, err := xmlspec.Marshal(v)
	if err != nil {
		b.Fatal(err)
	}
	return doc
}

func mustPass(b *testing.B, tc core.TestCase) {
	b.Helper()
	res, err := core.RunCase(tc, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if res.Err != nil || !res.Passed {
		b.Fatalf("failed: %v %v", res.Err, res.Failed())
	}
}

func padded(words []int64, depth int) []int64 {
	out := make([]int64, depth)
	copy(out, words)
	return out
}

// probeAllObserver attaches a probe to every wire of each elaborated
// configuration (the full-observability ablation).
type probeAllObserver struct{ flow.BaseObserver }

func (probeAllObserver) ConfigElaborated(_ string, el *netlist.Elaboration) { el.ProbeAll(0) }
