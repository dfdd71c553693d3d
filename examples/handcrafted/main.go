// Handcrafted example: the infrastructure is not tied to the compiler —
// any design expressed in the XML dialects can be simulated. This
// program hand-writes a datapath (a stimulus-fed accumulator) and its
// FSM, then exercises the observability features the paper motivates:
// probes on internal connections, an assertion, a VCD waveform dump and
// a sink collecting the output stream.
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

func design() (*xmlspec.Datapath, *xmlspec.FSM) {
	dp := &xmlspec.Datapath{
		Name:  "acc",
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "src", Type: "stim"},  // replays the stimulus file
			{ID: "r_acc", Type: "reg"}, // accumulator register
			{ID: "add0", Type: "add"},  // acc + src
			{ID: "cap", Type: "sink"},  // records the running sum
			{ID: "c100", Type: "const", Value: 1000},
			{ID: "lt0", Type: "lt"}, // acc < 1000
		},
		Connections: []xmlspec.Connection{
			{From: "r_acc.q", To: "add0.a"},
			{From: "src.out", To: "add0.b"},
			{From: "add0.y", To: "r_acc.d"},
			{From: "r_acc.q", To: "cap.in"},
			{From: "r_acc.q", To: "lt0.a"},
			{From: "c100.y", To: "lt0.b"},
		},
		Controls: []xmlspec.Control{
			{Name: "en_acc", Targets: []xmlspec.ControlTo{{Port: "r_acc.en"}}},
			{Name: "en_cap", Targets: []xmlspec.ControlTo{{Port: "cap.en"}}},
		},
		Statuses: []xmlspec.Status{
			{Name: "below", From: "lt0.y"},
			{Name: "last", From: "src.last"},
		},
	}
	fsm := &xmlspec.FSM{
		Name:    "acc_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "below"}, {Name: "last"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en_acc"}, {Name: "en_cap"}, {Name: "done"}},
		States: []xmlspec.State{
			{
				Name: "RUN", Initial: true,
				Assigns: []xmlspec.Assign{
					{Signal: "en_acc", Value: 1},
					{Signal: "en_cap", Value: 1},
				},
				Transitions: []xmlspec.Transition{
					{Cond: "below & !last", Next: "RUN"},
					{Next: "END"},
				},
			},
			{Name: "END", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	return dp, fsm
}

func main() {
	dp, fsm := design()

	// The hand-written XML validates against the dialect schemas, like
	// compiler output does, and then resolves into a plan once.
	if err := xmlspec.ValidateDatapath(dp, operators.DefaultRegistry()); err != nil {
		log.Fatal(err)
	}
	if err := xmlspec.ValidateFSM(fsm); err != nil {
		log.Fatal(err)
	}
	fmt.Println("hand-written XML validates against the dialect schemas")
	plan, err := netlist.Resolve(dp, fsm)
	if err != nil {
		log.Fatal(err)
	}

	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	stimulus := []int64{5, 10, 20, 40, 80, 160, 320, 640, 1280}
	el, err := netlist.Elaborate(sim, clk, plan, map[string][]int64{"src": stimulus})
	if err != nil {
		log.Fatal(err)
	}

	// Observability: probe the accumulator, dump all signals to VCD,
	// assert the accumulator never goes negative.
	acc := el.Signal("r_acc.q")
	probe := hades.NewProbe(acc, 0)
	vcdFile, err := os.CreateTemp("", "acc-*.vcd")
	if err != nil {
		log.Fatal(err)
	}
	defer vcdFile.Close()
	vcd := hades.NewVCDWriter(vcdFile)
	vcd.AddAll(sim)
	vcd.Header("acc")
	assertion := hades.NewAssertion("acc >= 0", func() bool { return acc.Int() >= 0 }, acc)

	res, err := el.RunToCompletion(10, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("finished in state %s after %d cycles (completed=%v)\n",
		res.FinalState, res.Cycles, res.Completed)
	fmt.Println("accumulator trace:", probe.Dump())
	fmt.Println("sink captured:", el.Component("cap").(*operators.Sink).Recorded())
	if assertion.Failed() {
		fmt.Println("assertion violations:", assertion.Violations())
	} else {
		fmt.Println("assertion held: accumulator never negative")
	}
	fmt.Println("waveforms:", vcdFile.Name())
}
