package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/workloads"
)

const gangBackend = "compiled"

var gangCompiled = workload{
	name:    "gang-compiled",
	backend: gangBackend,
	op:      "one 64-lane PreparedDesign.SimulateGang round, rotating over designs prepared in set-up; a case is a lane with its own seeded inputs (closed loop, 1 client)",
	why:     "gang lanes are the top engine item (allocation parity, then 64 lanes per word); compile, hades, netlist and interp sit outside the op, so nearly all its time is cycle plus rtg gang overhead",
	opSelf:  "rtg.gang_self_ms",
	setup:   setupGang,
}

const gangLanes = 64

// gangPairs is how many antithetic pairs of designs each band adds.
const gangPairs = 2

// gangBands give the gang designs, gangPairs antithetic pairs per family,
// sized so every 64-lane round costs about the same (median 13 ms, 90th
// percentile 18 ms on a 2-vCPU x86-64 host): with rounds of similar
// cost, the latency percentiles do not sit on the edge between two
// designs' clusters.
var gangBands = []band{
	{family: "newton", size: "n", lo: 16, hi: 20, fixed: workloads.Values{"iters": 9}},
	{family: "matmul", size: "n", lo: 4, hi: 5},
	{family: "fir", size: "n", lo: 20, hi: 28, fixed: workloads.Values{"taps": 5}},
	{family: "hamming", size: "words", lo: 12, hi: 20},
	{family: "erasure", size: "stripes", lo: 6, hi: 10, fixed: workloads.Values{"k": 5}},
}

type gangDesign struct {
	name     string
	d        *flow.PreparedDesign
	lanes    []map[string][]int64
	expected []map[string][]int64 // reference outputs of each lane's inputs
}

type gangBench struct {
	designs []*gangDesign // in the seeded round order
}

func setupGang(_ context.Context, e *env) (bench, error) {
	r := newRNG(e.seed, "gang-compiled")
	pipe, err := flow.New(flow.WithBackend(gangBackend))
	if err != nil {
		return nil, err
	}
	b := &gangBench{}
	for _, bd := range gangBands {
		for _, v := range bd.pairs(r, gangPairs) {
			c, err := workloads.Default.Build(bd.family, v)
			if err != nil {
				return nil, err
			}
			pd, err := pipe.Prepare(core.WorkloadCase(c).FlowSource())
			if err != nil {
				return nil, err
			}
			g := &gangDesign{name: fmt.Sprintf("%s(%s)", bd.family, v), d: pd}
			// Every lane runs the design's parameters on its own inputs.
			for l := 0; l < gangLanes; l++ {
				v["seed"] = r.inputSeed()
				lc, err := workloads.Default.Build(bd.family, v)
				if err != nil {
					return nil, err
				}
				g.lanes = append(g.lanes, lc.Inputs)
				g.expected = append(g.expected, lc.Expected)
			}
			b.designs = append(b.designs, g)
		}
	}
	r.shuffle(len(b.designs), func(i, j int) { b.designs[i], b.designs[j] = b.designs[j], b.designs[i] })
	return b, nil
}

func (b *gangBench) pass(_ context.Context, rec *recorder, tr *tracer) (counts, error) {
	var total counts
	for _, g := range b.designs {
		op := tr.newOp()
		var m0 uint64
		if tr != nil {
			m0 = mallocs()
		}
		start := time.Now()
		sims, err := g.d.SimulateGang(g.lanes)
		end := time.Now()
		var allocs uint64
		if tr != nil {
			allocs = mallocs() - m0
		}
		if err != nil {
			rec.fail(fmt.Errorf("%s: %w", g.name, err))
			continue
		}
		checkStart := time.Now()
		c, err := g.check(sims)
		checkEnd := time.Now()
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.ok(end.Sub(start), c)
		total.add(c)
		if tr != nil {
			var run time.Duration
			for _, s := range sims {
				run += s.SimWall
			}
			id := tr.addOp("flow.SimulateGang", op, start, end, int64(allocs))
			tr.add("cycle.run", op, id, start, start.Add(run), int64(c.Cycles))
			tr.add("workloads.check", op, 0, checkStart, checkEnd, 0)
		}
	}
	return total, nil
}

// check compares every lane's final memories with the reference outputs
// computed in set-up from that lane's inputs.
func (g *gangDesign) check(sims []*flow.SimResult) (counts, error) {
	c := counts{Cases: len(sims)}
	if len(sims) != len(g.lanes) {
		return c, fmt.Errorf("%s: %d lane results for %d lanes", g.name, len(sims), len(g.lanes))
	}
	for l, s := range sims {
		if !s.Completed {
			return c, fmt.Errorf("%s: lane %d hit the cycle cap", g.name, l)
		}
		for name, want := range g.expected[l] {
			got := s.Memories[name]
			if len(got) != len(want) {
				return c, fmt.Errorf("%s: lane %d: %s has %d words, want %d", g.name, l, name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					return c, fmt.Errorf("%s: lane %d: %s[%d] = %d, want %d", g.name, l, name, i, got[i], want[i])
				}
			}
		}
		c.Cycles += s.TotalCycles
		c.Events += s.Events
	}
	return c, nil
}

func (b *gangBench) layers(tr *tracer, ops int) (map[string]float64, error) {
	a := tr.aggregate()
	round, run := get(a, "flow.SimulateGang"), get(a, "cycle.run")
	m := map[string]float64{
		"flow.gang_round_ms":     perOp(ms(round.total), ops),
		"cycle.run_ms":           perOp(ms(run.total), ops),
		"rtg.gang_self_ms":       perOp(ms(round.self), ops),
		"cycle.allocs_per_round": perOp(float64(round.count), ops),
		"workloads.check_ms":     perOp(ms(get(a, "workloads.check").total), ops),
	}
	if run.total > 0 {
		m["cycle.lane_cycles_per_s"] = float64(run.count) / run.total.Seconds()
	}
	return m, nil
}

func (b *gangBench) close() error { return nil }
