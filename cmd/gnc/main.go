// Command gnc is the compiler driver (the Galadriel & Nenya stand-in):
// it compiles MiniJ functions into the datapath/fsm/rtg XML dialects
// and, on request, their dot/java/hds translations, or verifies each
// compiled function against the golden interpreter with the parallel
// suite runner — all through the flow pipeline API. Instead of a
// source file, -workload materializes a registry workload (source,
// sizes, inputs and reference expectations all derived from the
// family's parameters).
//
// Usage:
//
//	gnc -src fdct.mj -func fdct -size img=4096 -size tmp=4096 \
//	    -size out=4096 -arg nblocks=64 -out build/ -emit
//	gnc -src lib.mj -func f,g,h -verify -j 4 -failfast -json
//	gnc -src lib.mj -func f -verify -backend compiled
//	gnc -workload fir,n=1024,taps=16 -out build/ -emit
//	gnc -workload matmul,n=32 -verify
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/cmd/internal/cliutil"
	"repro/internal/core"
	"repro/internal/flow"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gnc:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		srcPath  = flag.String("src", "", "MiniJ source file")
		funcName = flag.String("func", "", "function(s) to compile, comma-separated")
		outDir   = flag.String("out", "build", "output directory")
		auto     = flag.Int("auto", 0, "auto-split into N temporal partitions")
		width    = flag.Int("width", 32, "datapath word width")
		emit     = flag.Bool("emit", false, "also emit dot/java/hds translations")
		verify   = flag.Bool("verify", false, "simulate each compiled function and verify against the golden interpreter")
		sizes    = cliutil.KVInts{}
		args     = cliutil.KVInt64s{}
		workload cliutil.WorkloadSpec
		rf       cliutil.RunnerFlags
		ff       cliutil.FlowFlags
	)
	flag.Var(sizes, "size", "array size: name=depth (repeatable)")
	flag.Var(args, "arg", "scalar argument: name=value (repeatable)")
	workload.Register(nil)
	rf.Register(nil)
	ff.Register(nil)
	flag.Parse()
	if workload.Name != "" {
		if *srcPath != "" || *funcName != "" {
			return fmt.Errorf("-workload and -src/-func are mutually exclusive")
		}
		if len(sizes) > 0 || len(args) > 0 {
			return fmt.Errorf("-workload derives sizes and arguments from its parameters; pass them inside the spec (e.g. -workload %s,param=value) instead of -size/-arg", workload.Name)
		}
		// The reference model only matters when verifying; compile-only
		// runs build the inputs alone.
		c, err := workload.CaseInputs()
		if *verify {
			c, err = workload.Case()
		}
		if err != nil {
			return err
		}
		return drive([]core.TestCase{core.WorkloadCase(c)}, false,
			*outDir, *width, *auto, *emit, *verify, rf, ff)
	}
	if *srcPath == "" || *funcName == "" {
		flag.Usage()
		return fmt.Errorf("-src and -func are required (or -workload)")
	}
	src, err := os.ReadFile(*srcPath)
	if err != nil {
		return err
	}
	funcs := strings.Split(*funcName, ",")
	cases := make([]core.TestCase, 0, len(funcs))
	for _, fn := range funcs {
		fn = strings.TrimSpace(fn)
		cases = append(cases, core.TestCase{
			Name:       fn,
			Source:     string(src),
			Func:       fn,
			ArraySizes: sizes,
			ScalarArgs: args,
		})
	}
	return drive(cases, len(cases) > 1, *outDir, *width, *auto, *emit, *verify, rf, ff)
}

// drive compiles every case, writes its artifacts (under a per-case
// subdirectory when perCaseDir is set), and — with -verify — runs the
// cases through the parallel suite runner, the same machinery the
// testsuite command uses for the regression suite.
func drive(cases []core.TestCase, perCaseDir bool, outDir string, width, auto int,
	emit, verify bool, rf cliutil.RunnerFlags, ff cliutil.FlowFlags) error {
	pipe, err := flow.New(append(ff.Options(),
		flow.WithWidth(width), flow.WithAutoPartitions(auto))...)
	if err != nil {
		return err
	}
	// In -verify -json mode stdout must stay pure JSON Lines; route the
	// compile listing to stderr.
	info := io.Writer(os.Stdout)
	if verify && rf.JSON {
		info = os.Stderr
	}
	for _, tc := range cases {
		dir := outDir
		if perCaseDir {
			dir = filepath.Join(outDir, tc.Name)
		}
		compiled, err := pipe.Compile(tc.FlowSource())
		if err != nil {
			return err
		}
		files, err := flow.WriteDesignArtifacts(compiled.Design, dir, emit)
		if err != nil {
			return err
		}
		for label, path := range files {
			fmt.Fprintf(info, "%-24s %s\n", label, path)
		}
		for _, m := range compiled.Partitions {
			fmt.Fprintf(info, "%s: datapath=%s operators=%d states=%d\n", m.ID, m.Datapath, m.Operators, m.States)
		}
	}
	if !verify {
		return nil
	}
	suite := &core.Suite{Name: "gnc-verify", Cases: cases}
	runner := rf.Runner()
	res := runner.Run(context.Background(), suite, core.Options{
		Width:          width,
		AutoPartitions: auto,
		Backend:        ff.Backend,
		ClockPeriod:    ff.Period,
		MaxCycles:      ff.Cycles,
	})
	if rf.JSON {
		if err := res.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		res.Report(os.Stdout)
	}
	if !res.Passed() {
		return fmt.Errorf("verification failed")
	}
	return nil
}
