// Command testsuite is the ANT-build analog: one command re-verifies the
// compiler's regression suite by functional simulation against each
// workload family's golden reference model, and optionally regenerates
// the paper's Table I. The suite is registry-driven: every family in
// internal/workloads contributes its suite-preset case, so a newly
// registered workload is regression-tested with no changes here.
//
// Usage:
//
//	testsuite                 # run the regression suite, one worker per CPU
//	testsuite -j 4            # shard the cases across 4 workers
//	testsuite -json           # one JSON object per case (CI artifacts)
//	testsuite -failfast -timeout 30s
//	testsuite -repeat 8       # verify sweep: 8 reset-and-replay rounds per case
//	testsuite -backend compiled # run the whole suite on the cycle engine
//	testsuite -table1         # reproduce Table I (plus the newer families)
//	testsuite -pixels 65536   # FDCT cases over a larger image
//
// Scenario engine (docs/SCENARIOS.md):
//
//	testsuite -scenario examples/scenarios/mixed-poisson.json -trace run.jsonl
//	testsuite -replay run.jsonl                      # must be bit-identical
//	testsuite -replay run.jsonl -backend compiled    # replay on another backend
//	testsuite -replay run.jsonl -counterfactual faults=off
//
// Sharded sweeps (docs/SWEEP.md):
//
//	testsuite sweep run -spec campaign.json -shards 8 -shard-workers 4 -out-dir out/
//	testsuite sweep run -spec campaign.json -out-dir out/ -resume
//	testsuite sweep status -out-dir out/
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/cmd/internal/cliutil"
	"repro/internal/core"
	"repro/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "testsuite:", err)
		os.Exit(1)
	}
}

func run() error {
	// The sweep subcommand family has its own flag sets; dispatch before
	// the global flags parse.
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		return runSweep(os.Args[2:])
	}
	var (
		table1  = flag.Bool("table1", false, "reproduce the paper's Table I")
		pixels  = flag.Int("pixels", 4096, "FDCT image size in pixels (Table I uses 4096)")
		words   = flag.Int("words", 64, "Hamming codeword count")
		workDir = flag.String("workdir", "", "write XML/dot/java/hds/mem artifacts here")
		rf      cliutil.RunnerFlags
		ff      cliutil.FlowFlags
		sf      cliutil.ScenarioFlags
	)
	rf.Register(nil)
	ff.Register(nil)
	sf.Register(nil)
	flag.Parse()

	if sf.Active() {
		return sf.Execute(nil, &ff, os.Stdout)
	}

	opts := core.Options{
		WorkDir:       *workDir,
		EmitArtifacts: *workDir != "",
		Backend:       ff.Backend,
		ClockPeriod:   ff.Period,
		MaxCycles:     ff.Cycles,
	}
	suite, err := regressionSuite(*pixels, *words)
	if err != nil {
		return err
	}
	runner := rf.Runner()
	if *table1 {
		return runTable1(suite, runner, *pixels, *words, opts, rf.JSON)
	}
	res := runner.Run(context.Background(), suite, opts)
	if rf.JSON {
		if err := res.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		res.Report(os.Stdout)
	}
	if !res.Passed() {
		return fmt.Errorf("suite failed")
	}
	return nil
}

// regressionSuite derives the suite from the workload registry: every
// family's suite preset, with the historical -pixels/-words flags
// scaling the FDCT and Hamming cases.
func regressionSuite(pixels, words int) (*core.Suite, error) {
	return core.RegistrySuite("compiler-regression", map[string]workloads.Values{
		"fdct1":   {"pixels": pixels},
		"fdct2":   {"pixels": pixels},
		"hamming": {"words": words},
	})
}

// runTable1 regenerates the paper's Table I. The cases run through the
// same parallel runner as the regression suite (so -j/-timeout/-failfast
// apply); the rows print in case order regardless of completion order.
func runTable1(suite *core.Suite, runner *core.Runner, pixels, words int, opts core.Options, asJSON bool) error {
	sres := runner.Run(context.Background(), suite, opts)
	if asJSON {
		if err := sres.WriteJSON(os.Stdout); err != nil {
			return err
		}
		if !sres.Passed() {
			return fmt.Errorf("suite failed")
		}
		return nil
	}
	fmt.Printf("Table I reproduction (image: %d pixels, %d DCT blocks; hamming: %d codewords)\n\n",
		pixels/64*64, pixels/64, words)
	fmt.Printf("%-10s %7s %9s %11s %8s %10s %12s\n",
		"Example", "loJava", "loXML-FSM", "loXML-dpath", "loJavaFSM", "operators", "sim-time")
	for _, res := range sres.Results {
		if res.Err != nil {
			return res.Err
		}
		if !res.Passed {
			return fmt.Errorf("%s: verification FAILED: %v", res.Name, res.Failed())
		}
		loc, err := res.Compiled.LoC()
		if err != nil {
			return err
		}
		for i, p := range res.Partitions {
			label := res.Name
			if len(res.Partitions) > 1 {
				label = fmt.Sprintf("%s/%s", res.Name, p.ID)
			}
			loJava := ""
			if i == 0 {
				loJava = fmt.Sprint(res.SourceLoC)
			}
			fmt.Printf("%-10s %7s %9d %11d %8d %10d %12v\n",
				label, loJava, loc[i].XMLFSMLoC, loc[i].XMLDatapathLoC, loc[i].JavaFSMLoC,
				p.Operators, p.SimWall.Round(time.Millisecond))
		}
	}
	fmt.Printf("\nall cases verified against the golden algorithm in %v (workers: %d)\n",
		sres.Wall.Round(time.Millisecond), sres.Workers)
	return nil
}
