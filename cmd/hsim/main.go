// Command hsim simulates a compiled design: it loads the rtg.xml bundle
// written by gnc, seeds the shared memories from .mem files, executes
// the reconfiguration flow through the flow pipeline on a selectable
// simulator backend, and writes the resulting memory contents back next
// to the inputs. Per-configuration progress is streamed as it happens.
// Instead of a bundle on disk, -workload compiles a registry workload
// in-process, seeds its generated inputs, and verifies the simulated
// memories against the family's pure-Go reference model.
//
// Usage:
//
//	hsim -design build/ -mem img=img.mem -cycles 10000000 -vcd waves
//	hsim -design build/ -backend compiled
//	hsim -design build/ -repeat 16        # reset-and-replay 16 rounds
//	hsim -workload newton,n=1024 -vcd waves
//
// The scenario engine runs here too (docs/SCENARIOS.md):
//
//	hsim -scenario examples/scenarios/erasure-recover.json -trace run.jsonl
//	hsim -replay run.jsonl -counterfactual backend=compiled
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/cmd/internal/cliutil"
	"repro/internal/flow"
	"repro/internal/memfile"
	"repro/internal/xmlspec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		designDir = flag.String("design", "build", "directory holding rtg.xml and companions (or the output directory with -workload)")
		vcdPrefix = flag.String("vcd", "", "dump VCD waveforms to <prefix>.<cfg>.vcd")
		repeat    = flag.Int("repeat", 1, "simulation rounds; rounds after the first reset-and-replay the prepared design")
		mems      = cliutil.KVStrings{}
		workload  cliutil.WorkloadSpec
		ff        cliutil.FlowFlags
		sf        cliutil.ScenarioFlags
	)
	flag.Var(mems, "mem", "shared memory contents: name=file (repeatable)")
	workload.Register(nil)
	ff.Register(nil)
	sf.Register(nil)
	flag.Parse()

	if sf.Active() {
		return sf.Execute(nil, &ff, os.Stdout)
	}

	opts := append(ff.Options(), flow.WithObserver(flow.NewProgressObserver(os.Stdout)))
	if *vcdPrefix != "" {
		opts = append(opts, flow.WithObserver(flow.NewVCDObserver(*vcdPrefix, os.Stdout)))
	}
	pipe, err := flow.New(opts...)
	if err != nil {
		return err
	}
	if workload.Name != "" {
		if len(mems) > 0 {
			return fmt.Errorf("-workload generates its own memory contents; -mem applies to -design bundles")
		}
		return runWorkload(pipe, workload, *designDir, *repeat)
	}

	design, err := xmlspec.LoadDesign(*designDir)
	if err != nil {
		return err
	}
	pd, err := pipe.PrepareDesign(design)
	if err != nil {
		return err
	}
	for _, m := range design.RTG.Memories {
		path, ok := mems[m.ID]
		if !ok {
			if m.File != "" {
				candidate := filepath.Join(*designDir, m.File)
				if _, err := os.Stat(candidate); err == nil {
					path = candidate
				}
			}
			if path == "" {
				continue // zero-initialised
			}
		}
		words, err := memfile.LoadSized(path, m.Depth)
		if err != nil {
			return err
		}
		if err := pd.SetSeed(m.ID, words); err != nil {
			return err
		}
		fmt.Printf("loaded %s from %s (%d words)\n", m.ID, path, m.Depth)
	}

	res, err := replayRounds(pd, *repeat)
	if err != nil {
		return err
	}
	if !res.Completed {
		return fmt.Errorf("simulation incomplete (cycle cap %d)", ff.Cycles)
	}
	for _, id := range pd.Elaborated().MemoryIDs() {
		out := filepath.Join(*designDir, id+".out.mem")
		if err := memfile.Save(out, res.Memories[id], "simulated contents of "+id); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	fmt.Printf("total cycles: %d\n", res.TotalCycles)
	return nil
}

// replayRounds simulates the prepared design repeat times (reseeding
// each round) and returns the final round's result, reporting the
// amortized reconfiguration throughput when more than one round ran.
func replayRounds(pd *flow.PreparedDesign, repeat int) (*flow.SimResult, error) {
	if repeat < 1 {
		repeat = 1
	}
	start := time.Now()
	var res *flow.SimResult
	configs := 0
	for i := 0; i < repeat; i++ {
		var err error
		res, err = pd.Simulate()
		if err != nil {
			return nil, err
		}
		configs += len(res.Runs)
	}
	if repeat > 1 {
		wall := time.Since(start)
		fmt.Printf("replayed %d rounds (%d configurations) in %v: %.1f configs/sec\n",
			repeat, configs, wall.Round(time.Millisecond), float64(configs)/wall.Seconds())
	}
	return res, nil
}

// runWorkload drives the full staged pipeline for a registry workload:
// compile the emitted MiniJ, prepare (elaborate + seed the generated
// inputs) once, simulate repeat rounds through the replay cache, verify
// the final round against the family's reference model, and dump the
// simulated memories under outDir.
func runWorkload(pipe *flow.Pipeline, spec cliutil.WorkloadSpec, outDir string, repeat int) error {
	c, err := spec.Case()
	if err != nil {
		return err
	}
	pd, err := pipe.Prepare(flow.Source{
		Name: c.Name, Text: c.Source, Func: c.Func,
		ArraySizes: c.ArraySizes, ScalarArgs: c.ScalarArgs,
		Inputs: c.Inputs, Expected: c.Expected,
	})
	if err != nil {
		return err
	}
	res, err := replayRounds(pd, repeat)
	if err != nil {
		return err
	}
	if !res.Completed {
		return fmt.Errorf("simulation incomplete (cycle cap %d)", pipe.Config().MaxCycles)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	for _, id := range pd.Elaborated().MemoryIDs() {
		out := filepath.Join(outDir, id+".out.mem")
		if err := memfile.Save(out, res.Memories[id], "simulated contents of "+id); err != nil {
			return err
		}
		fmt.Println("wrote", out)
	}
	fmt.Printf("total cycles: %d\n", res.TotalCycles)
	verdict, err := pipe.Verify(pd.Compiled(), res)
	if err != nil {
		return err
	}
	if !verdict.Passed {
		return fmt.Errorf("workload %s: simulated memories diverge from the reference model: %v",
			spec.Name, verdict.Failed())
	}
	fmt.Printf("verified against the %s reference model\n", spec.Name)
	return nil
}
