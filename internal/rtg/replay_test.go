package rtg

import (
	"testing"

	"repro/internal/hades"
	"repro/internal/netlist"
	"repro/internal/xmlspec"
)

// streamConfig is a stimulus-fed accumulator with a sink capture whose
// stimulus contents come from LocalInit — the streaming shape that
// exercises stimulus rewind, sink clearing and local-seed copying on
// the replay path.
func streamConfig(name string) (*xmlspec.Datapath, *xmlspec.FSM) {
	dp := &xmlspec.Datapath{
		Name:  name,
		Width: 32,
		Operators: []xmlspec.Operator{
			{ID: "s_in", Type: "stim"},
			{ID: "r_acc", Type: "reg"},
			{ID: "add0", Type: "add"},
			{ID: "cap", Type: "sink"},
		},
		Connections: []xmlspec.Connection{
			{From: "r_acc.q", To: "add0.a"},
			{From: "s_in.out", To: "add0.b"},
			{From: "add0.y", To: "r_acc.d"},
			{From: "r_acc.q", To: "cap.in"},
		},
		Controls: []xmlspec.Control{
			{Name: "en_acc", Targets: []xmlspec.ControlTo{{Port: "r_acc.en"}}},
			{Name: "en_cap", Targets: []xmlspec.ControlTo{{Port: "cap.en"}}},
		},
		Statuses: []xmlspec.Status{{Name: "s_last", From: "s_in.last"}},
	}
	fsm := &xmlspec.FSM{
		Name:    name + "_ctl",
		Inputs:  []xmlspec.FSMSignal{{Name: "s_last"}},
		Outputs: []xmlspec.FSMSignal{{Name: "en_acc"}, {Name: "en_cap"}, {Name: "done"}},
		States: []xmlspec.State{
			{
				Name: "RUN", Initial: true,
				Assigns: []xmlspec.Assign{
					{Signal: "en_acc", Value: 1},
					{Signal: "en_cap", Value: 1},
				},
				Transitions: []xmlspec.Transition{
					{Cond: "!s_last", Next: "RUN"},
					{Next: "END"},
				},
			},
			{Name: "END", Final: true, Assigns: []xmlspec.Assign{{Signal: "done", Value: 1}}},
		},
	}
	return dp, fsm
}

// replayPropertyDesign is the repeat-heavy shape the cache targets: the
// two-partition memory pipeline plus a streaming configuration, so one
// Execute touches shared RAMs, local stimuli, sinks and the FSMs.
func replayPropertyDesign(n int64) *xmlspec.Design {
	d := twoPartitionDesign(n)
	dp3, f3 := streamConfig("p3")
	d.RTG.Transitions = append(d.RTG.Transitions,
		xmlspec.RTGTransition{From: "cfg2", To: "cfg3", On: "done"})
	d.AddConfiguration("cfg3", dp3, f3)
	return d
}

func propInputs(round, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64((i*13 + round*7 + 1) % 101)
	}
	return out
}

// sameRuns compares two ExecResults field by field, ignoring host wall
// times and the lifetime Elaborations/Resets counters (which differ by
// design between the fresh and replay arms).
func sameRuns(t *testing.T, label string, a, b *ExecResult) {
	t.Helper()
	if a.Completed != b.Completed || a.TotalCycles != b.TotalCycles || len(a.Runs) != len(b.Runs) {
		t.Fatalf("%s: result shape diverged: %+v vs %+v", label, a, b)
	}
	for i := range a.Runs {
		x, y := a.Runs[i], b.Runs[i]
		if x.ID != y.ID || x.Cycles != y.Cycles || x.EndTime != y.EndTime ||
			x.Completed != y.Completed || x.FinalState != y.FinalState ||
			x.Events != y.Events || x.Kernel != y.Kernel {
			t.Fatalf("%s: run %d diverged:\n%+v\n%+v", label, i, x, y)
		}
		xs, ys := x.Stats, y.Stats
		if xs.Events != ys.Events || xs.Deltas != ys.Deltas ||
			xs.Reactions != ys.Reactions || xs.Instants != ys.Instants {
			t.Fatalf("%s: run %d kernel stats diverged:\n%+v\n%+v", label, i, xs, ys)
		}
		if len(x.Sinks) != len(y.Sinks) {
			t.Fatalf("%s: run %d sink sets diverged", label, i)
		}
		for id, rec := range x.Sinks {
			other := y.Sinks[id]
			if len(rec) != len(other) {
				t.Fatalf("%s: run %d sink %s length %d vs %d", label, i, id, len(rec), len(other))
			}
			for j := range rec {
				if rec[j] != other[j] {
					t.Fatalf("%s: run %d sink %s[%d]=%d vs %d", label, i, id, j, rec[j], other[j])
				}
			}
		}
	}
}

// TestReplayMatchesFreshElaboration is the property test pinning the
// tentpole: across repeated Execute rounds with fresh inputs, a
// replaying controller is trace-identical — cycles, end times, per-run
// kernel stats, sink streams, final memories — to one that rebuilds
// every configuration from scratch.
func TestReplayMatchesFreshElaboration(t *testing.T) {
	const n = 8
	t.Run(hades.KernelTwoLevel, func(t *testing.T) {
		mkOpts := func(disable bool) Options {
			o := testOptions()
			o.DisableReplay = disable
			o.LocalInit = map[string]map[string][]int64{
				"cfg3": {"s_in": propInputs(99, 16)},
			}
			return o
		}
		freshCtl, err := NewController(replayPropertyDesign(n), mkOpts(true))
		if err != nil {
			t.Fatal(err)
		}
		replayCtl, err := NewController(replayPropertyDesign(n), mkOpts(false))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			in := propInputs(round, n)
			var results [2]*ExecResult
			for i, ctl := range []*Controller{freshCtl, replayCtl} {
				if err := ctl.LoadMemory("ma", in); err != nil {
					t.Fatal(err)
				}
				res, err := ctl.Execute(nil)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Completed || len(res.Runs) != 3 {
					t.Fatalf("round %d ctl %d: %+v", round, i, res)
				}
				results[i] = res
			}
			sameRuns(t, "replay", results[0], results[1])
			for _, id := range []string{"ma", "mb", "mc"} {
				a, _ := freshCtl.Memory(id)
				b, _ := replayCtl.Memory(id)
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("round %d: memory %s[%d]=%d vs %d", round, id, j, a[j], b[j])
					}
				}
			}
			// The arms must actually be doing what their names say.
			for _, run := range results[0].Runs {
				if run.Stats.Elaborations != 1 || run.Stats.Resets != 0 {
					t.Fatalf("fresh arm replayed: %+v", run.Stats)
				}
			}
			for _, run := range results[1].Runs {
				if run.Stats.Elaborations != 1 || run.Stats.Resets != uint64(round) {
					t.Fatalf("round %d: replay arm lifetime counters %+v", round, run.Stats)
				}
			}
		}
	})
}

// TestSeedsAreCopiedNotAliased is the regression test for the
// shared-slice seeding bug: the controller used to hand the caller's
// LocalInit slices (and the store's own backing arrays) straight to
// elaboration, where a stimulus keeps the slice as its live vector — so
// mutating the caller's slice mid-run rewrote the inputs the hardware
// was consuming. Seeds are now copied; the mid-run mutation must be
// invisible, on the fresh run and on a replay.
func TestSeedsAreCopiedNotAliased(t *testing.T) {
	const words = 8
	vec := propInputs(0, words)
	mkDesign := func() *xmlspec.Design {
		d := xmlspec.NewDesign(&xmlspec.RTG{Name: "alias", Start: "cfg"})
		dp, fsm := streamConfig("p")
		d.AddConfiguration("cfg", dp, fsm)
		return d
	}

	// Baseline: the stream the design records when nobody mutates.
	baseOpts := testOptions()
	baseOpts.LocalInit = map[string]map[string][]int64{"cfg": {"s_in": append([]int64(nil), vec...)}}
	baseCtl, err := NewController(mkDesign(), baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := baseCtl.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := baseRes.Runs[0].Sinks["cap"]
	if len(want) < words {
		t.Fatalf("baseline recorded %d samples", len(want))
	}

	local := append([]int64(nil), vec...)
	opts := testOptions()
	opts.LocalInit = map[string]map[string][]int64{"cfg": {"s_in": local}}
	opts.Observer = func(_ string, el *netlist.Elaboration) {
		edges := 0
		el.Clk.Listen(&hades.ReactorFunc{Label: "mutator", Fn: func(*hades.Simulator) {
			if edges++; edges == 4 { // mid-run: a few edges in, well before the stream ends
				for i := range local {
					local[i] = -999
				}
			}
		}})
	}
	c, err := NewController(mkDesign(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // fresh elaboration, then a replay
		copy(local, vec) // restore the caller-side slice the observer clobbers
		res, err := c.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := res.Runs[0].Sinks["cap"]
		if len(rec) != len(want) {
			t.Fatalf("round %d: recorded %d samples, want %d", round, len(rec), len(want))
		}
		for i := range want {
			if rec[i] != want[i] {
				t.Fatalf("round %d: mid-run mutation leaked into the stream: cap[%d]=%d want %d (rec=%v)",
					round, i, rec[i], want[i], rec)
			}
		}
	}
}

// TestDisableReplayRebuildsEveryVisit pins the ablation hook.
func TestDisableReplayRebuildsEveryVisit(t *testing.T) {
	opts := testOptions()
	opts.DisableReplay = true
	c, err := NewController(twoPartitionDesign(4), opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		res, err := c.Execute(nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range res.Runs {
			if run.Stats.Elaborations != 1 || run.Stats.Resets != 0 {
				t.Fatalf("round %d: DisableReplay still replayed: %+v", round, run.Stats)
			}
		}
	}
}

// TestReplayExecuteAllocs locks in the steady-state cheapness of the
// replay path at the controller level: once the cache is warm, a full
// Execute round allocates orders of magnitude less than the
// fresh-elaboration path (run records and sink copies remain; wired
// graphs, signals and events do not).
func TestReplayExecuteAllocs(t *testing.T) {
	run := func(disable bool) float64 {
		opts := testOptions()
		opts.DisableReplay = disable
		c, err := NewController(twoPartitionDesign(8), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(nil); err != nil { // warm caches either way
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := c.Execute(nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	replay, fresh := run(false), run(true)
	if replay > 100 {
		t.Fatalf("replay Execute allocates %v objects, want near-zero (<=100)", replay)
	}
	if fresh < 5*replay {
		t.Fatalf("replay (%v allocs) should be far below fresh elaboration (%v allocs)", replay, fresh)
	}
}
