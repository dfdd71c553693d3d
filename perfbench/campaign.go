package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

const campaignBackend = "compiled"

var campaignSharded = workload{
	name:    "campaign-sharded",
	backend: campaignBackend,
	op:      "one shard as the coordinator sees its RunShard; a case is a campaign case (sweep.Run, one local endpoint with 1 slot, seeded mixed-family scenario spec, single lane)",
	why:     "exercises scenario expansion, per-shard executors whose replay caches mix hits and misses, shard write/inspect/merge and trace encoding, and single-lane cycle runs a gang-only speed-up could slow",
	// Shards run inside sweep.ExecuteShard, which takes no flow observers.
	unobserved: []string{
		"flow.compile_ms", "flow.compile_views_ms", "flow.compile_allocs", "flow.elaborate_ms",
		"flow.simulate_ms", "flow.simulate_allocs", "flow.verify_ms", "flow.verify_allocs",
		"interp.ms", "interp.steps", "cycle.run_ms", "cycle.lane_cycles_per_s",
	},
	opSelf: "sweep.shard_ms",
	setup:  setupCampaign,
}

const (
	campaignCases  = 256
	campaignShards = 64
	campaignSlots  = 1
)

// campaignMix repeats parameter choices, so a shard's executor both
// prepares new designs and replays cached ones. The families are sized
// to similar costs, so the seeded family mix moves the totals little.
func campaignMix() []api.MixEntry {
	choice := func(v ...int) api.Dist { return api.Dist{Choice: v} }
	span := func(lo, hi int) api.Dist { return api.Dist{Uniform: &api.IntRange{Min: lo, Max: hi}} }
	return []api.MixEntry{
		{Family: "hamming", Params: map[string]api.Dist{"words": choice(32, 40)}},
		{Family: "fir", Params: map[string]api.Dist{"n": span(40, 56), "taps": choice(4)}},
		{Family: "newton", Params: map[string]api.Dist{"n": choice(16, 24), "iters": choice(10)}},
		{Family: "matmul", Params: map[string]api.Dist{"n": choice(5, 6)}},
		{Family: "erasure", Params: map[string]api.Dist{"k": choice(6), "stripes": choice(12, 16)}},
	}
}

type campaignBench struct {
	camp        *sweep.Campaign
	dir         string
	refDigest   [sha256.Size]byte
	shardCounts []counts // each shard's counts, from the reference's case lines
	prepares    int      // distinct (family, params) keys summed over shards
	mergedSize  int

	// Dispatch counters summed over the traced passes.
	retried, hedges, steals int
}

func setupCampaign(ctx context.Context, e *env) (bench, error) {
	r := newRNG(e.seed, "campaign-sharded")
	spec := &api.SweepSpec{
		SchemaVersion: api.SchemaVersion,
		Name:          "perfbench-campaign",
		Shards:        campaignShards,
		Backend:       campaignBackend,
		Scenario: &api.ScenarioSpec{
			SchemaVersion: api.SchemaVersion,
			Name:          "perfbench-mixed",
			Seed:          int64(r.next() >> 1),
			Cases:         campaignCases,
			Backend:       campaignBackend,
			Mix:           campaignMix(),
		},
	}
	camp, err := sweep.Load(spec, nil)
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Load(spec.Scenario, nil)
	if err != nil {
		return nil, err
	}
	// The reference: the same spec run in a single process.
	var ref bytes.Buffer
	res, err := sc.Run(ctx, scenario.Options{}, &ref)
	if err != nil {
		return nil, err
	}
	if !res.OK() {
		return nil, fmt.Errorf("reference campaign not ok: %+v", res.Summary)
	}
	// A pass whose merged file equals the reference ran every shard's
	// cases exactly as the reference did, so each shard's counts are
	// taken once, here, from the reference's case lines.
	lines := bytes.SplitAfter(ref.Bytes(), []byte("\n"))
	b := &campaignBench{camp: camp, dir: filepath.Join(e.dir, "campaign"), refDigest: sha256.Sum256(ref.Bytes())}
	for _, sh := range camp.Shards() {
		c := counts{Cases: sh.To - sh.From}
		for _, l := range lines[1+sh.From : 1+sh.To] {
			var tc api.TraceCase
			if err := json.Unmarshal(l, &tc); err != nil {
				return nil, fmt.Errorf("reference case line: %w", err)
			}
			for _, cfg := range tc.Configs {
				c.Cycles += cfg.Cycles
				c.Events += cfg.Events
			}
		}
		b.shardCounts = append(b.shardCounts, c)
		runs, err := camp.MaterializeRange(sh.From, sh.To)
		if err != nil {
			return nil, err
		}
		keys := map[string]bool{}
		for _, cr := range runs {
			keys[cr.Key()] = true
		}
		b.prepares += len(keys)
	}
	return b, nil
}

// shardOutcome is what the timing worker saw of one RunShard call.
type shardOutcome struct {
	sh   sweep.Shard
	lat  time.Duration
	err  error
	span int
}

// timedWorker wraps the local worker to time each shard as the
// coordinator sees it.
type timedWorker struct {
	inner sweep.LocalWorker
	tr    *tracer
	mu    sync.Mutex
	out   []shardOutcome
}

func (w *timedWorker) Name() string { return w.inner.Name() }

func (w *timedWorker) RunShard(ctx context.Context, c *sweep.Campaign, sh sweep.Shard, path string) error {
	op := w.tr.newOp()
	start := time.Now()
	err := w.inner.RunShard(ctx, c, sh, path)
	end := time.Now()
	id := w.tr.addOp("sweep.RunShard", op, start, end, int64(sh.To-sh.From))
	w.mu.Lock()
	w.out = append(w.out, shardOutcome{sh: sh, lat: end.Sub(start), err: err, span: id})
	w.mu.Unlock()
	return err
}

func (b *campaignBench) pass(ctx context.Context, rec *recorder, tr *tracer) (counts, error) {
	w := &timedWorker{tr: tr}
	start := time.Now()
	res, runErr := sweep.Run(ctx, b.camp, sweep.Options{OutDir: b.dir, Workers: campaignSlots, Worker: w})
	end := time.Now()
	mergedOK := false
	if runErr == nil {
		merged, err := os.ReadFile(res.Out)
		if err != nil {
			return counts{}, err
		}
		mergedOK = sha256.Sum256(merged) == b.refDigest
		b.mergedSize = len(merged)
	}
	var total counts
	for _, o := range w.out {
		switch {
		case o.err != nil:
			rec.fail(fmt.Errorf("shard %d: %w", o.sh.Index, o.err))
		case runErr != nil:
			rec.fail(fmt.Errorf("shard %d: pass failed: %w", o.sh.Index, runErr))
		case !mergedOK:
			rec.fail(fmt.Errorf("shard %d: merged campaign differs from the single-process reference", o.sh.Index))
		default:
			c := b.shardCounts[o.sh.Index]
			rec.ok(o.lat, c)
			total.add(c)
		}
	}
	if tr != nil {
		run := tr.add("sweep.Run", tr.newOp(), 0, start, end, 0)
		for _, o := range w.out {
			tr.setParent(o.span, run)
		}
		if res != nil {
			b.retried += res.Stats.Retried
			b.hedges += res.Stats.Hedges
			b.steals += res.Stats.Steals
		}
	}
	return total, nil
}

func (b *campaignBench) layers(tr *tracer, ops int) (map[string]float64, error) {
	// Parse and compile are timed directly on the sources a shard's
	// executor prepares: each distinct key of the shard, a cache miss.
	probes := 0
	for _, sh := range b.camp.Shards() {
		runs, err := b.camp.MaterializeRange(sh.From, sh.To)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		op := tr.newOp()
		for _, cr := range runs {
			if seen[cr.Key()] {
				continue
			}
			seen[cr.Key()] = true
			c := cr.Clean
			if err := compileDirect(tr, op, c.Source, c.Func, c.ArraySizes, c.ScalarArgs); err != nil {
				return nil, err
			}
		}
		probes++
	}
	// The merge is timed once, on the last pass's shard files.
	m0 := time.Now()
	if err := sweep.MergeDir(b.camp, b.dir, filepath.Join(b.dir, "remerged.jsonl")); err != nil {
		return nil, err
	}
	tr.add("sweep.MergeDir", tr.newOp(), 0, m0, time.Now(), 0)
	a := tr.aggregate()
	shard, run := get(a, "sweep.RunShard"), get(a, "sweep.Run")
	m := map[string]float64{
		"lang.parse_ms":              perOp(ms(get(a, "lang.parse").total), probes),
		"compiler.compile_ms":        perOp(ms(get(a, "compiler.compile").total), probes),
		"sweep.shard_ms":             perOp(ms(shard.total), ops),
		"sweep.coordinator_self_ms":  perOp(ms(run.self), ops),
		"sweep.merge_ms":             ms(get(a, "sweep.MergeDir").total),
		"sweep.retried":              perOp(float64(b.retried), ops),
		"sweep.hedges":               perOp(float64(b.hedges), ops),
		"sweep.steals":               perOp(float64(b.steals), ops),
		"scenario.prepares_per_case": float64(b.prepares) / float64(b.camp.Cases()),
		"api.trace_bytes_per_case":   float64(b.mergedSize) / float64(b.camp.Cases()),
	}
	if shard.count > 0 {
		m["sweep.shard_ms_per_case"] = ms(shard.total) / float64(shard.count)
	}
	if run.total > 0 {
		m["sweep.slot_busy_ratio"] = float64(shard.total) / (campaignSlots * float64(run.total))
	}
	return m, nil
}

func (b *campaignBench) close() error { return nil }
