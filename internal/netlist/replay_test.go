package netlist

import (
	"testing"

	"repro/internal/hades"
	"repro/internal/operators"
	"repro/internal/xmlspec"
)

// accumulatorDesign is a stimulus-fed accumulator with a sink capture —
// the examples/handcrafted shape — exercising every stateful operator
// class the replay path must rewind: stimulus position, register value,
// sink recording and the FSM.
func accumulatorDesign() (*xmlspec.Datapath, *xmlspec.FSM) {
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
	return dp, fsm
}

func stimVec(seed, n int) []int64 {
	vec := make([]int64, n)
	for i := range vec {
		vec[i] = int64((i*31 + seed*17) % 97)
	}
	return vec
}

type accRun struct {
	res   RunResult
	stats hades.Stats
	rec   []int64
}

func runAccumulator(t *testing.T, el *Elaboration) accRun {
	t.Helper()
	rr, err := el.RunToCompletion(10, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Completed {
		t.Fatalf("incomplete: %+v", rr)
	}
	rec := append([]int64(nil), el.Component("cap").(*operators.Sink).Recorded()...)
	return accRun{res: *rr, stats: el.Sim.Stats(), rec: rec}
}

func sameAccRun(a, b accRun) bool {
	if a.res != b.res {
		return false
	}
	if a.stats.Events != b.stats.Events || a.stats.Deltas != b.stats.Deltas ||
		a.stats.Reactions != b.stats.Reactions || a.stats.Instants != b.stats.Instants {
		return false
	}
	if len(a.rec) != len(b.rec) {
		return false
	}
	for i := range a.rec {
		if a.rec[i] != b.rec[i] {
			return false
		}
	}
	return true
}

// TestElaborationResetReplaysFresh pins that Reset + RunToCompletion
// reproduces a fresh elaboration bit for bit — run records, per-run
// kernel stats and sink recordings — across rounds with differing
// stimulus contents.
func TestElaborationResetReplaysFresh(t *testing.T) {
	t.Run(hades.KernelTwoLevel, func(t *testing.T) {
		dp, fsm := accumulatorDesign()
		fresh := func(vec []int64) accRun {
			sim := hades.NewSimulator()
			clk := sim.NewSignal("clk", 1)
			el, err := build(sim, clk, dp, fsm, map[string][]int64{"src": vec})
			if err != nil {
				t.Fatal(err)
			}
			return runAccumulator(t, el)
		}

		sim := hades.NewSimulator()
		clk := sim.NewSignal("clk", 1)
		el, err := build(sim, clk, dp, fsm, map[string][]int64{"src": stimVec(0, 64)})
		if err != nil {
			t.Fatal(err)
		}
		first := runAccumulator(t, el)
		if want := fresh(stimVec(0, 64)); !sameAccRun(first, want) {
			t.Fatalf("pre-replay sanity: %+v vs %+v", first, want)
		}
		for round := 1; round <= 3; round++ {
			vec := stimVec(round, 64)
			el.Reset(map[string][]int64{"src": vec})
			got := runAccumulator(t, el)
			if want := fresh(vec); !sameAccRun(got, want) {
				t.Fatalf("round %d: replay diverged from fresh elaboration:\n got %+v\nwant %+v", round, got, want)
			}
			if st := el.Sim.Stats(); st.Elaborations != 1 || st.Resets != uint64(round) {
				t.Fatalf("round %d: lifetime counters %+v", round, st)
			}
		}
	})
}

// TestResetFallsBackToOriginalSeeds pins the init-override contract:
// components absent from the Reset map reload the contents they were
// elaborated with, not whatever the previous run left behind.
func TestResetFallsBackToOriginalSeeds(t *testing.T) {
	dp, fsm := accumulatorDesign()
	vec := stimVec(1, 16)
	sim := hades.NewSimulator()
	clk := sim.NewSignal("clk", 1)
	el, err := build(sim, clk, dp, fsm, map[string][]int64{"src": vec})
	if err != nil {
		t.Fatal(err)
	}
	first := runAccumulator(t, el)
	el.Reset(nil) // no overrides: original stimulus again
	again := runAccumulator(t, el)
	if !sameAccRun(first, again) {
		t.Fatalf("replay with original seeds diverged:\n got %+v\nwant %+v", again, first)
	}
}

// TestReplaySteadyStateAllocs locks in the amortization the replay
// subsystem exists for: once elaborated and warmed, a reset-and-replay
// round of a full design run stays within a handful of allocations
// (the RunResult itself) — against the thousands a fresh elaboration
// pays. Mirrors hades.TestResetSteadyStateAllocs one layer up.
func TestReplaySteadyStateAllocs(t *testing.T) {
	t.Run(hades.KernelTwoLevel, func(t *testing.T) {
		dp, fsm := accumulatorDesign()
		vec := stimVec(3, 256)
		init := map[string][]int64{"src": vec}
		sim := hades.NewSimulator()
		clk := sim.NewSignal("clk", 1)
		el, err := build(sim, clk, dp, fsm, init)
		if err != nil {
			t.Fatal(err)
		}
		// Warm: first run grows pools, sink capacity, clock/watchdog.
		for i := 0; i < 2; i++ {
			if i > 0 {
				el.Reset(init)
			}
			runAccumulator(t, el)
		}
		avg := testing.AllocsPerRun(10, func() {
			el.Reset(init)
			rr, err := el.RunToCompletion(10, 10_000)
			if err != nil || !rr.Completed {
				t.Fatalf("replay failed: %v %+v", err, rr)
			}
		})
		if avg > 4 {
			t.Fatalf("reset-and-replay allocates %v objects per configuration, want ~0 (<=4)", avg)
		}
	})
}
