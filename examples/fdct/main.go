// FDCT example: the paper's main workload. Runs the 8x8-block DCT over a
// 4,096-pixel image in both the single-configuration (FDCT1) and
// two-temporal-partition (FDCT2) implementations, verifies both against
// the golden algorithm, and prints the Table I columns.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

func main() {
	const pixels = 4096
	for _, variant := range []struct {
		name string
		two  bool
	}{
		{"FDCT1 (one configuration)", false},
		{"FDCT2 (two temporal partitions via the RTG)", true},
	} {
		src, sizes, args, inputs := workloads.FDCTCase(variant.name, pixels, variant.two, 42)
		tc := core.TestCase{
			Name: variant.name, Source: src, Func: "fdct",
			ArraySizes: sizes, ScalarArgs: args, Inputs: inputs,
		}
		res, err := core.RunCase(tc, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("%s\n", variant.name)
		fmt.Printf("  source: %d lines of MiniJ; image: %d pixels (%d blocks)\n",
			res.SourceLoC, pixels, pixels/64)
		loc, err := res.Compiled.LoC()
		if err != nil {
			log.Fatal(err)
		}
		for i, p := range res.Partitions {
			fmt.Printf("  %s: %4d operators, %3d states, XML %4d+%3d lines, fsm.java %3d lines, %7d cycles, %v\n",
				p.ID, p.Operators, p.States, loc[i].XMLDatapathLoC, loc[i].XMLFSMLoC,
				loc[i].JavaFSMLoC, p.Cycles, p.SimWall.Round(time.Millisecond))
		}
		status := "VERIFIED against the golden algorithm"
		if !res.Passed {
			status = fmt.Sprintf("FAILED: %v", res.Failed())
		}
		fmt.Printf("  total simulation %v — %s\n\n", res.SimWall.Round(time.Millisecond), status)
	}
}
