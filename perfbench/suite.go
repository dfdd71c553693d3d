package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lang"
	"repro/internal/rtg"
	"repro/internal/workloads"
)

const suiteBackend = "twolevel"

var suiteFresh = workload{
	name:    "suite-fresh",
	backend: suiteBackend,
	op:      "one seeded case, MiniJ source to verdict, through core.RunCase; every case is a new design (closed loop, 1 client)",
	why:     "the paper's own use: re-verify every generated architecture after a compiler change; the only workload paying parse, compile, views, controller build and fresh elaboration on every case",
	setup:   setupSuite,
}

// suiteBands are the suite's six workload families (FDCT in its one-
// and two-configuration variants), sized so a case takes several ms on
// twolevel (median 8 ms, 90th percentile 15 ms on a 2-vCPU x86-64 host).
var suiteBands = []band{
	{family: "hamming", size: "words", lo: 64, hi: 96},
	{family: "fir", size: "n", lo: 64, hi: 96, fixed: workloads.Values{"taps": 6}},
	{family: "matmul", size: "n", lo: 6, hi: 8},
	{family: "newton", size: "n", lo: 40, hi: 56, fixed: workloads.Values{"iters": 10}},
	{family: "erasure", size: "stripes", lo: 20, hi: 28, fixed: workloads.Values{"k": 6}},
	{family: "fdct1", size: "pixels", lo: 64, hi: 128, step: 64},
	{family: "fdct2", size: "pixels", lo: 64, hi: 192, step: 64},
}

// suitePairs is how many antithetic pairs of each band one pass holds.
const suitePairs = 3

type suiteBench struct {
	cases []core.TestCase
}

func setupSuite(_ context.Context, e *env) (bench, error) {
	r := newRNG(e.seed, "suite-fresh")
	b := &suiteBench{}
	for _, bd := range suiteBands {
		for _, v := range bd.pairs(r, suitePairs) {
			c, err := workloads.Default.Build(bd.family, v)
			if err != nil {
				return nil, err
			}
			tc := core.WorkloadCase(c)
			tc.Name = fmt.Sprintf("%s-%d", c.Workload, len(b.cases))
			b.cases = append(b.cases, tc)
		}
	}
	r.shuffle(len(b.cases), func(i, j int) { b.cases[i], b.cases[j] = b.cases[j], b.cases[i] })
	return b, nil
}

func (b *suiteBench) pass(_ context.Context, rec *recorder, tr *tracer) (counts, error) {
	var total counts
	for _, tc := range b.cases {
		opts := core.Options{Backend: suiteBackend}
		var obs *stageObserver
		op := tr.newOp()
		if tr != nil {
			obs = newStageObserver(tr, op)
			opts.Observers = []flow.Observer{obs}
		}
		start := time.Now()
		res, err := core.RunCase(tc, opts)
		end := time.Now()
		if err == nil && !res.OK() {
			err = fmt.Errorf("%s: verdict failed (mismatches in %v)", tc.Name, res.Failed())
		}
		if err != nil {
			rec.fail(err)
			continue
		}
		c := counts{Cases: 1, Events: res.Events(), Steps: res.RefSteps}
		for _, p := range res.Partitions {
			c.Cycles += p.Cycles
		}
		rec.ok(end.Sub(start), c)
		total.add(c)
		if tr != nil {
			obs.finish(tr.addOp("core.RunCase", op, start, end, 0), res.RefWall, res.RefSteps)
		}
	}
	return total, nil
}

func (b *suiteBench) layers(tr *tracer, ops int) (map[string]float64, error) {
	// Parse and compile are timed by calling the layers directly on every
	// case's source, outside the timed region.
	for _, tc := range b.cases {
		if err := compileDirect(tr, tr.newOp(), tc.Source, tc.Func, tc.ArraySizes, tc.ScalarArgs); err != nil {
			return nil, err
		}
	}
	a := tr.aggregate()
	m := flowLayers(a, ops)
	probes := len(b.cases)
	m["lang.parse_ms"] = perOp(ms(get(a, "lang.parse").total), probes)
	m["compiler.compile_ms"] = perOp(ms(get(a, "compiler.compile").total), probes)
	m["flow.compile_views_ms"] = m["flow.compile_ms"] - m["lang.parse_ms"] - m["compiler.compile_ms"]
	return m, nil
}

func (b *suiteBench) close() error { return nil }

// compileDirect times lang.Parse and compiler.Compile called directly on
// one source, as the flow's compile stage calls them, and records a
// span for each.
func compileDirect(tr *tracer, op int64, src, fn string, sizes map[string]int, args map[string]int64) error {
	t0 := time.Now()
	prog, err := lang.Parse(src)
	t1 := time.Now()
	if err != nil {
		return err
	}
	_, err = compiler.Compile(prog, fn, compiler.Config{ArraySizes: sizes, ScalarArgs: args})
	t2 := time.Now()
	if err != nil {
		return err
	}
	tr.add("lang.parse", op, 0, t0, t1, 0)
	tr.add("compiler.compile", op, 0, t1, t2, 0)
	return nil
}

func get(a map[string]*agg, name string) *agg {
	if v := a[name]; v != nil {
		return v
	}
	return &agg{}
}

// flowLayers derives the flow stage, hades and interp metrics from the
// spans a stageObserver records.
func flowLayers(a map[string]*agg, ops int) map[string]float64 {
	hades := get(a, "hades.run")
	m := map[string]float64{
		"flow.compile_ms":      perOp(ms(get(a, "flow.compile").total), ops),
		"flow.compile_allocs":  perOp(float64(get(a, "flow.compile").count), ops),
		"flow.elaborate_ms":    perOp(ms(get(a, "flow.elaborate").total), ops),
		"flow.simulate_ms":     perOp(ms(get(a, "flow.simulate").total), ops),
		"flow.simulate_allocs": perOp(float64(get(a, "flow.simulate").count), ops),
		"hades.run_ms":         perOp(ms(hades.total), ops),
		"hades.events":         perOp(float64(hades.count), ops),
		"netlist.elaborate_ms": perOp(ms(get(a, "flow.simulate").self), ops),
		"flow.verify_ms":       perOp(ms(get(a, "flow.verify").total), ops),
		"flow.verify_allocs":   perOp(float64(get(a, "flow.verify").count), ops),
		"interp.ms":            perOp(ms(get(a, "interp.run").total), ops),
		"interp.steps":         perOp(float64(get(a, "interp.run").count), ops),
	}
	if hades.total > 0 {
		m["hades.events_per_s"] = float64(hades.count) / hades.total.Seconds()
	}
	return m
}

// stageObserver records a span per flow stage (with the stage's heap
// allocations as its count) and per hades configuration run (with its
// kernel events) for one op.
type stageObserver struct {
	flow.BaseObserver
	tr      *tracer
	op      int64
	begin   map[flow.StageName]stageMark
	stages  map[flow.StageName]int
	configs []int
}

type stageMark struct {
	at      time.Time
	mallocs uint64
}

func newStageObserver(tr *tracer, op int64) *stageObserver {
	return &stageObserver{tr: tr, op: op, begin: map[flow.StageName]stageMark{}, stages: map[flow.StageName]int{}}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// The stage spans enclose the observer's own heap-statistics reads,
// which stop the world: left between the spans, they would be op time
// no layer covers.
func (o *stageObserver) StageBegin(stage flow.StageName, _ string) {
	at := time.Now()
	o.begin[stage] = stageMark{at: at, mallocs: mallocs()}
}

func (o *stageObserver) StageEnd(stage flow.StageName, _ string, _ error, _ time.Duration) {
	b := o.begin[stage]
	n := mallocs()
	id := o.tr.add("flow."+string(stage), o.op, 0, b.at, time.Now(), int64(n-b.mallocs))
	o.stages[stage] = id
	if stage == flow.StageSimulate {
		for _, c := range o.configs {
			o.tr.setParent(c, id)
		}
		o.configs = nil
	}
}

func (o *stageObserver) ConfigDone(run rtg.ConfigRun) {
	end := time.Now()
	o.configs = append(o.configs, o.tr.add("hades.run", o.op, 0, end.Add(-run.Wall), end, int64(run.Events)))
}

// finish hangs the stage spans under the op span and places the golden
// interpreter's run, which the verify stage times itself, at the start
// of the verify span.
func (o *stageObserver) finish(opSpan int, refWall time.Duration, refSteps uint64) {
	for _, id := range o.stages {
		o.tr.setParent(id, opSpan)
	}
	if v := o.stages[flow.StageVerify]; v != 0 {
		start := o.tr.startOf(v)
		o.tr.add("interp.run", o.op, v, start, start.Add(refWall), int64(refSteps))
	}
}
