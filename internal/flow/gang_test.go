package flow_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/workloads"
)

// TestSimulateGangMatchesSequential is the gang acceptance property,
// statistics included: on the scale kernel, every workload family and
// a loop whose trip count comes from lane data, each lane of a compiled
// lockstep round must equal a one-lane compiled round of the same seeds
// — every configuration's hades.Stats included — and, in cycles, end
// times, states, sinks and memories, both the twolevel backend's
// sequential gang fallback and a plain twolevel SetSeed+Simulate round
// (engine counters differ by design across engines).
func TestSimulateGangMatchesSequential(t *testing.T) {
	for _, gc := range gangCases(t) {
		t.Run(gc.name, func(t *testing.T) {
			gang, err := prepare(t, "compiled", gc.src).SimulateGang(gc.lanes)
			if err != nil {
				t.Fatal(err)
			}
			event, err := prepare(t, "twolevel", gc.src).SimulateGang(gc.lanes)
			if err != nil {
				t.Fatal(err)
			}
			cycles := map[uint64]bool{}
			for l, seeds := range gc.lanes {
				if err := sameOutcome(gang[l], oneLaneRun(t, "compiled", gc.src, seeds), true); err != nil {
					t.Fatalf("lane %d vs its one-lane compiled round: %v", l, err)
				}
				if err := sameOutcome(gang[l], event[l], false); err != nil {
					t.Fatalf("lane %d vs the twolevel sequential gang: %v", l, err)
				}
				if err := sameOutcome(gang[l], oneLaneRun(t, "twolevel", gc.src, seeds), false); err != nil {
					t.Fatalf("lane %d vs its one-lane twolevel round: %v", l, err)
				}
				if !gang[l].Completed {
					t.Fatalf("lane %d hit the cycle cap", l)
				}
				cycles[gang[l].TotalCycles] = true
			}
			if gc.staggered && len(cycles) != len(gc.lanes) {
				t.Fatalf("lanes must finish on different cycles, got cycle counts %v", cycles)
			}
		})
	}
}

// TestSimulateGangLaneSeedValidation: unknown shared-memory ids in a
// lane seed must fail the whole gang up front.
func TestSimulateGangLaneSeedValidation(t *testing.T) {
	p, err := flow.New(flow.WithBackend("compiled"))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Prepare(scaleSource())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.SimulateGang([]map[string][]int64{{"ghost": {1}}}); err == nil {
		t.Fatal("unknown lane-seed memory must error")
	}
}

// gangFamilyParams shrinks every registered workload family to a design
// that gangs quickly.
var gangFamilyParams = map[string]workloads.Values{
	"erasure": {"k": 4, "stripes": 4},
	"fdct1":   {"pixels": 64},
	"fdct2":   {"pixels": 64},
	"fir":     {"n": 16, "taps": 4},
	"hamming": {"words": 8},
	"matmul":  {"n": 3},
	"newton":  {"n": 8, "iters": 4},
}

// spinSrc loops a data-dependent number of times: a[0]&15 iterations,
// so lanes seeded with different a[0] finish on different cycles.
const spinSrc = `
void spin(int[] a, int[] b) {
  int k = a[0] & 15;
  int i = 0;
  while (i < k) {
    b[i] = a[i + 1] * 3 - i;
    i = i + 1;
  }
}
`

func spinSource() flow.Source {
	return flow.Source{
		Name: "spin", Text: spinSrc, Func: "spin",
		ArraySizes: map[string]int{"a": 17, "b": 16},
		Inputs:     map[string][]int64{"a": {4, 1, 2, 3, 4}},
	}
}

// gangCase is one design of the gang equivalence checks: its source and
// the lane seeds a gang round runs it on.
type gangCase struct {
	name      string
	src       flow.Source
	lanes     []map[string][]int64
	staggered bool // the lanes' trip counts differ, so must their cycles
}

// workloadSource turns a registry case into the flow's source form.
func workloadSource(c *workloads.Case) flow.Source {
	return flow.Source{Name: c.Name, Text: c.Source, Func: c.Func,
		ArraySizes: c.ArraySizes, ScalarArgs: c.ScalarArgs, Inputs: c.Inputs}
}

// familyGangCase builds a family's design with lanes seeded from the
// family's own input generator at different seeds; lane 0 keeps the
// prepared seeds.
func familyGangCase(t testing.TB, family string, lanes int) gangCase {
	t.Helper()
	v := gangFamilyParams[family].Clone()
	c, err := workloads.Build(family, v)
	if err != nil {
		t.Fatal(err)
	}
	gc := gangCase{name: family, src: workloadSource(c), lanes: []map[string][]int64{nil}}
	for l := 1; l < lanes; l++ {
		v["seed"] = 1000 + 17*l
		lc, err := workloads.Build(family, v)
		if err != nil {
			t.Fatal(err)
		}
		gc.lanes = append(gc.lanes, lc.Inputs)
	}
	return gc
}

// gangCases covers the scale kernel, all seven workload families and
// the data-dependent spin loop, whose lanes run 0, 3, 9 and 15
// iterations.
func gangCases(t testing.TB) []gangCase {
	t.Helper()
	out := []gangCase{{name: "scale", src: scaleSource(), lanes: []map[string][]int64{
		nil, // prepared seeds untouched
		{"a": {1, 2, 3, 4, 5, 6, 7, 8}},
		{"a": {-8, -7, -6, -5, -4, -3, -2, -1}},
		{"a": {100, 0, -100, 50, 25, 12, 6, 3}},
	}}}
	for _, family := range workloads.Names() {
		out = append(out, familyGangCase(t, family, 4))
	}
	spin := gangCase{name: "spin", src: spinSource(), staggered: true}
	for _, k := range []int64{0, 3, 9, 15} {
		spin.lanes = append(spin.lanes, map[string][]int64{"a": {k, 5, -6, 7, -8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}})
	}
	return append(out, spin)
}

func prepare(t testing.TB, backend string, src flow.Source, opts ...flow.Option) *flow.PreparedDesign {
	t.Helper()
	p, err := flow.New(append([]flow.Option{flow.WithBackend(backend)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// oneLaneRun is a lane's seeds as a plain one-lane round: a fresh
// prepared design, the seeds set, one Simulate.
func oneLaneRun(t testing.TB, backend string, src flow.Source, seeds map[string][]int64) *flow.SimResult {
	t.Helper()
	d := prepare(t, backend, src)
	for id, words := range seeds {
		if err := d.SetSeed(id, words); err != nil {
			t.Fatal(err)
		}
	}
	s, err := d.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameOutcome compares two walks in cycles, end times, completion,
// final states, sinks and memories; withStats also requires identical
// engine counters and kernel names (same engine only).
func sameOutcome(got, want *flow.SimResult, withStats bool) error {
	if got.Completed != want.Completed || got.TotalCycles != want.TotalCycles || len(got.Runs) != len(want.Runs) {
		return fmt.Errorf("walk diverges: completed %v/%v, cycles %d/%d, %d/%d configurations",
			got.Completed, want.Completed, got.TotalCycles, want.TotalCycles, len(got.Runs), len(want.Runs))
	}
	for i := range got.Runs {
		g, w := got.Runs[i], want.Runs[i]
		if g.ID != w.ID || g.Cycles != w.Cycles || g.EndTime != w.EndTime || g.Completed != w.Completed ||
			g.FinalState != w.FinalState || !reflect.DeepEqual(g.Sinks, w.Sinks) {
			return fmt.Errorf("configuration %d diverges:\ngot  %s cycles=%d end=%d completed=%v state=%s sinks=%v\nwant %s cycles=%d end=%d completed=%v state=%s sinks=%v",
				i, g.ID, g.Cycles, g.EndTime, g.Completed, g.FinalState, g.Sinks,
				w.ID, w.Cycles, w.EndTime, w.Completed, w.FinalState, w.Sinks)
		}
		if withStats && (g.Stats != w.Stats || g.Events != w.Events || g.Kernel != w.Kernel) {
			return fmt.Errorf("configuration %s counters diverge:\ngot  %s %+v\nwant %s %+v", g.ID, g.Kernel, g.Stats, w.Kernel, w.Stats)
		}
	}
	if !reflect.DeepEqual(got.Memories, want.Memories) {
		return fmt.Errorf("memories diverge:\ngot  %v\nwant %v", got.Memories, want.Memories)
	}
	return nil
}

// TestSimulateGangAllocsPerLane pins the gang round's allocation shape:
// what a round allocates per lane and configuration (lane stores, run
// records) must not grow with the simulated cycles — the same family at
// 8x the cycles allocates the same — and stays at most 16.
func TestSimulateGangAllocsPerLane(t *testing.T) {
	const lanes = 64
	perLane := func(n int) (allocs float64, cycles uint64) {
		v := workloads.Values{"n": n, "iters": 4}
		c, err := workloads.Build("newton", v)
		if err != nil {
			t.Fatal(err)
		}
		d := prepare(t, "compiled", workloadSource(c))
		seeds := make([]map[string][]int64, lanes)
		for l := range seeds {
			v["seed"] = 1 + l
			lc, err := workloads.Build("newton", v)
			if err != nil {
				t.Fatal(err)
			}
			seeds[l] = lc.Inputs
		}
		sims, err := d.SimulateGang(seeds) // warm: compile, instantiate, grow buffers
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(3, func() {
			if _, err := d.SimulateGang(seeds); err != nil {
				t.Fatal(err)
			}
		})
		return avg / float64(lanes*len(sims[0].Runs)), sims[0].TotalCycles
	}
	small, smallCycles := perLane(8)
	large, largeCycles := perLane(64)
	if largeCycles < 4*smallCycles {
		t.Fatalf("sizes too close: %d vs %d cycles per lane", smallCycles, largeCycles)
	}
	if large > small {
		t.Fatalf("allocations grow with cycles: %.2f per lane and configuration at %d cycles, %.2f at %d",
			small, smallCycles, large, largeCycles)
	}
	if large > 16 {
		t.Fatalf("%.2f allocations per lane and configuration, want at most 16", large)
	}
}
