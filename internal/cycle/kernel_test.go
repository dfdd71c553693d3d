package cycle_test

import (
	"fmt"
	"testing"

	"repro/internal/workloads"
	"repro/internal/xmlspec"
)

// holdFSM stays in one final state with no outputs: the run goes to the
// cycle horizon, sampling sinks on every edge.
func holdFSM() *xmlspec.FSM {
	return &xmlspec.FSM{
		Name:   "hold",
		States: []xmlspec.State{{Name: "S", Initial: true, Final: true}},
	}
}

// addrDatapath drives a RAM write port and a ROM from a 64-bit
// stimulus address, with sinks on both read ports: an address word of
// -1 is far out of range, not an index.
func addrDatapath() *xmlspec.Datapath {
	return &xmlspec.Datapath{
		Name:  "addr",
		Width: 64,
		Operators: []xmlspec.Operator{
			{ID: "ad", Type: "stim"},
			{ID: "d", Type: "const", Value: 77},
			{ID: "one", Type: "const", Width: 1, Value: 1},
			{ID: "m", Type: "ram", Width: 32, Depth: 4, Ref: "m"},
			{ID: "r", Type: "rom", Width: 32, Depth: 4},
			{ID: "km", Type: "sink"}, {ID: "kr", Type: "sink"},
		},
		Connections: []xmlspec.Connection{
			{From: "ad.out", To: "m.addr"}, {From: "ad.out", To: "r.addr"},
			{From: "d.y", To: "m.din"}, {From: "one.y", To: "m.we"},
			{From: "m.dout", To: "km.in"}, {From: "one.y", To: "km.en"},
			{From: "r.dout", To: "kr.in"}, {From: "one.y", To: "kr.en"},
		},
	}
}

// addrLane is one lane's outcome on addrDatapath.
type addrLane struct {
	mem    []int64
	km, kr []int64
}

func runAddr(t *testing.T, lanes []map[string][]int64) []addrLane {
	t.Helper()
	prog, err := compile(t, addrDatapath(), holdFSM())
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance(len(lanes))
	for l, init := range lanes {
		init["r"] = []int64{5, 6, 7, 8}
		inst.Reset(l, init)
	}
	if err := inst.Run(10, 4, nil); err != nil {
		t.Fatal(err)
	}
	out := make([]addrLane, len(lanes))
	for l := range lanes {
		out[l].mem = make([]int64, 4)
		inst.CopyShared(l, "m", out[l].mem)
		s := inst.Sinks(l)
		out[l].km, out[l].kr = s["km"], s["kr"]
	}
	return out
}

// TestOutOfRangeAddressHolds: a RAM or ROM address word of -1 is out of
// range like any address past the depth — the write is dropped and
// both read ports hold (here: stay undefined, so the sinks record
// nothing). It is not an index, so it neither panics nor wraps.
func TestOutOfRangeAddressHolds(t *testing.T) {
	got := runAddr(t, []map[string][]int64{{"ad": {-1}, "m": {10, 20, 30, 40}}})[0]
	if fmt.Sprint(got.mem) != "[10 20 30 40]" || len(got.km) != 0 || len(got.kr) != 0 {
		t.Fatalf("address -1: mem %v, ram reads %v, rom reads %v; want [10 20 30 40] and no reads",
			got.mem, got.km, got.kr)
	}
}

// TestGangOutOfRangeAddressStaysInLane: in a gang, lane 1's memory sits
// right after lane 0's, so a negative address must not reach across:
// lane 1 neither reads nor corrupts lane 0's words.
func TestGangOutOfRangeAddressStaysInLane(t *testing.T) {
	got := runAddr(t, []map[string][]int64{
		{"ad": {1}, "m": {10, 20, 30, 40}},
		{"ad": {-1}, "m": {11, 21, 31, 41}},
	})
	// Lane 0 reads word 1 before its first write lands, then the 77.
	if fmt.Sprint(got[0].mem) != "[10 77 30 40]" || fmt.Sprint(got[0].km) != "[20 77 77]" || fmt.Sprint(got[0].kr) != "[6 6 6]" {
		t.Fatalf("lane 0: mem %v, ram reads %v, rom reads %v; want [10 77 30 40], [20 77 77], [6 6 6]",
			got[0].mem, got[0].km, got[0].kr)
	}
	if fmt.Sprint(got[1].mem) != "[11 21 31 41]" || len(got[1].km) != 0 || len(got[1].kr) != 0 {
		t.Fatalf("lane 1: mem %v, ram reads %v, rom reads %v; want [11 21 31 41] and no reads",
			got[1].mem, got[1].km, got[1].kr)
	}
}

// TestInstanceSteadyStateAllocs pins the lane kernel's allocation
// guarantee: once a 64-lane instance has run once (sink buffers grown),
// resetting every lane and running the gang to completion allocates
// nothing — no per-cycle, per-lane or per-node garbage.
func TestInstanceSteadyStateAllocs(t *testing.T) {
	const lanes = 64
	cs, err := workloads.Build("newton", workloads.Values{"n": 8, "iters": 4})
	if err != nil {
		t.Fatal(err)
	}
	design := compileDesign(t, cs)
	cfg, _ := design.RTG.FindConfiguration(design.RTG.Start)
	dp := design.Datapaths[cfg.Datapath]
	prog, err := compile(t, dp, design.FSMs[cfg.FSM])
	if err != nil {
		t.Fatal(err)
	}
	init := configSeeds(dp, newStore(cs))
	inst := prog.NewInstance(lanes)
	round := func() {
		for l := 0; l < lanes; l++ {
			inst.Reset(l, init)
		}
		if err := inst.Run(10, equivMaxCycles, nil); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if lr := inst.Result(lanes - 1); !lr.Completed || lr.Cycles == 0 {
		t.Fatalf("warm-up round did not complete: %+v", lr)
	}
	if avg := testing.AllocsPerRun(5, round); avg != 0 {
		t.Fatalf("a 64-lane reset+run round allocates %v objects, want 0", avg)
	}
}
