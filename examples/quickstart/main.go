// Quickstart: the whole verification flow on the public pipeline API —
// compile a tiny MiniJ program, simulate the generated architecture on
// a selectable backend while streaming progress, and verify the memory
// contents against the golden interpreter.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

const src = `
// Compute b[i] = 3*a[i] + i over n elements.
void scale(int[] a, int[] b, int n) {
  for (int i = 0; i < n; i = i + 1) {
    b[i] = 3 * a[i] + i;
  }
}
`

func main() {
	source := repro.Source{
		Name:       "quickstart",
		Text:       src,
		Func:       "scale",
		ArraySizes: map[string]int{"a": 16, "b": 16},
		ScalarArgs: map[string]int64{"n": 16},
		Inputs: map[string][]int64{
			"a": {5, -3, 12, 7, 0, 1, 2, 3, 100, -100, 42, 9, 8, 7, 6, 5},
		},
	}

	// Run the same flow on both simulator backends; the
	// compiled cycle engine agrees with the event kernel clock edge for
	// clock edge.
	for _, backend := range repro.Backends() {
		fmt.Printf("--- backend %s (%s) ---\n", backend.Name, backend.Kind)
		out, err := repro.Run(source,
			repro.WithBackend(backend.Name),
			repro.WithObserver(repro.NewProgressObserver(os.Stdout)),
		)
		if err != nil {
			log.Fatal(err)
		}
		if out.Verdict == nil {
			log.Fatalf("simulation incomplete after cycle cap")
		}
		p := out.Compiled.Partitions[0]
		fmt.Printf("generated architecture: %d operators, %d FSM states\n", p.Operators, p.States)
		fmt.Printf("simulated %d clock cycles in %v; golden reference took %v\n",
			out.Sim.TotalCycles, out.Sim.SimWall, out.Verdict.RefWall)
		if out.OK() {
			fmt.Println("memory contents match the golden algorithm: design verified")
		} else {
			log.Fatalf("MISMATCH: %v", out.Verdict.Failed())
		}
	}
}
