// Package sweep is the sharded campaign coordinator: it partitions a
// sweep's configuration space — a scenario spec's expanded case list,
// or a workload-preset x seed-range grid — into numbered contiguous
// shards, runs each shard in a worker (in-process pool, spawned
// subprocess, or remote simd endpoint), and merges the per-shard JSONL
// files into one campaign trace whose bytes are identical regardless
// of worker count, interleaving, or how many resume passes it took.
//
// Shards are the unit of recovery: a shard file ending in a valid
// footer digest is never re-executed; torn, missing or foreign shards
// are re-run. The merged file is a plain scenario trace (header, case
// lines, summary), so every downstream consumer — replay,
// counterfactual, trace diff — works on campaign output unchanged.
package sweep

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/api"
	"repro/internal/flow"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// DefaultShards caps the default shard layout when the spec does not
// pin one.
const DefaultShards = 8

// gridCell is one parsed workload column of a grid campaign.
type gridCell struct {
	w      workloads.Workload
	values workloads.Values // base values from the inline spec, without the seed param
}

// Campaign is a loaded, validated sweep: the normalized spec, its
// digest, the resolved backend, and everything needed to materialize
// any case range deterministically.
type Campaign struct {
	// Spec is the normalized spec: Shards is resolved to the actual
	// layout (never <=0), so the digest covers the layout.
	Spec *api.SweepSpec
	// Digest fingerprints the normalized spec plus the resolved backend
	// and width; shard files carry it, and shards from a different
	// campaign, layout or backend never pass resume validation.
	Digest string
	// Backend is the resolved simulator backend (spec override, then the
	// scenario spec's backend, then the flow default).
	Backend string
	// Width is the resolved datapath width override (0 = compiler default).
	Width int

	sc        *scenario.Scenario
	cells     []gridCell
	seedParam string
}

// Load validates a sweep spec against the registry (nil = default) and
// normalizes its shard layout. The returned campaign is what the
// coordinator, a worker process, and the simd shard endpoint all agree
// on: same spec bytes => same digest => same shard layout and cases.
func Load(spec *api.SweepSpec, reg *workloads.Registry) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if reg == nil {
		reg = workloads.Default
	}
	norm := *spec
	c := &Campaign{Spec: &norm}
	switch {
	case norm.Scenario != nil:
		sc, err := scenario.Load(norm.Scenario, reg)
		if err != nil {
			return nil, err
		}
		c.sc = sc
		c.Width = norm.Scenario.Width
		c.Backend = norm.Scenario.Backend
	default:
		g := norm.Grid
		// The scenario case cap, checked before anything is sized by the
		// case count (written without the product, which can overflow).
		if g.Span() > scenario.MaxCases/len(g.Workloads) {
			return nil, fmt.Errorf("sweep: %s: grid of %d workloads x %d seeds exceeds %d cases",
				norm.Name, len(g.Workloads), g.Span(), scenario.MaxCases)
		}
		c.seedParam = g.SeedParam
		if c.seedParam == "" {
			c.seedParam = "seed"
		}
		for _, ws := range g.Workloads {
			name, v, err := workloads.ParseSpec(ws)
			if err != nil {
				return nil, fmt.Errorf("sweep: %s: %w", norm.Name, err)
			}
			w, err := reg.Lookup(name)
			if err != nil {
				return nil, fmt.Errorf("sweep: %s: %w", norm.Name, err)
			}
			if _, ok := v[c.seedParam]; ok {
				return nil, fmt.Errorf("sweep: %s: workload %q pins %q, which the grid's seed range assigns",
					norm.Name, ws, c.seedParam)
			}
			// Probe both ends of the seed range so a range outside the
			// parameter's schema fails at load, not mid-campaign.
			for _, seed := range []int{g.SeedFrom, g.SeedTo - 1} {
				probe := v.Clone()
				probe[c.seedParam] = seed
				if _, err := workloads.Resolve(w, probe); err != nil {
					return nil, fmt.Errorf("sweep: %s: workload %q with %s=%d: %w",
						norm.Name, ws, c.seedParam, seed, err)
				}
			}
			c.cells = append(c.cells, gridCell{w: w, values: v})
		}
	}
	if norm.Backend != "" {
		c.Backend = norm.Backend
	}
	if c.Backend == "" {
		c.Backend = flow.DefaultBackend
	}
	if _, err := flow.LookupBackend(c.Backend); err != nil {
		return nil, fmt.Errorf("sweep: %s: %w", norm.Name, err)
	}

	cases := c.Cases()
	if norm.Shards <= 0 {
		norm.Shards = DefaultShards
	}
	if norm.Shards > cases {
		norm.Shards = cases
	}
	c.Digest = c.computeDigest()
	return c, nil
}

// Parse decodes and Loads a spec from r.
func Parse(r io.Reader, reg *workloads.Registry) (*Campaign, error) {
	spec, err := api.DecodeSweepSpec(r)
	if err != nil {
		return nil, err
	}
	return Load(spec, reg)
}

// LoadFile reads, decodes and Loads a spec file.
func LoadFile(path string, reg *workloads.Registry) (*Campaign, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()
	return Parse(f, reg)
}

// WrapScenario lifts a scenario spec into a sweep spec — the CLI's
// `sweep run -scenario` path.
func WrapScenario(spec *api.ScenarioSpec, shards int) *api.SweepSpec {
	return &api.SweepSpec{Name: spec.Name, Shards: shards, Scenario: spec}
}

// computeDigest hashes the normalized spec plus the resolved backend
// and width with FNV-1a. Field order in the marshalled spec is fixed by
// the struct definition, so the digest is stable across processes.
func (c *Campaign) computeDigest() string {
	b, err := json.Marshal(c.Spec)
	if err != nil {
		// A loaded spec round-trips by construction.
		panic(fmt.Sprintf("sweep: marshal normalized spec: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	fmt.Fprintf(h, "|%s|%d", c.Backend, c.Width)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Cases is the campaign's total case count.
func (c *Campaign) Cases() int {
	if c.sc != nil {
		return c.Spec.Scenario.Cases
	}
	return c.Spec.Grid.Cases()
}

// Shard is one contiguous case range of the campaign layout.
type Shard struct {
	Index int // 0-based shard number
	Count int // total shards in the layout
	From  int // first case index (inclusive)
	To    int // last case index (exclusive)
}

// Shards returns the campaign's whole shard layout, in case order.
func (c *Campaign) Shards() []Shard {
	out := make([]Shard, c.Spec.Shards)
	for i := range out {
		out[i], _ = c.ShardAt(i)
	}
	return out
}

// ShardAt returns shard i of the layout: Spec.Shards contiguous ranges
// differing in size by at most one case, the larger ones first.
func (c *Campaign) ShardAt(i int) (Shard, error) {
	n := c.Spec.Shards
	if i < 0 || i >= n {
		return Shard{}, fmt.Errorf("sweep: %s: shard %d outside layout of %d", c.Spec.Name, i, n)
	}
	base, rem := c.Cases()/n, c.Cases()%n
	from := i*base + min(i, rem)
	to := from + base
	if i < rem {
		to++
	}
	return Shard{Index: i, Count: n, From: from, To: to}, nil
}

// MaterializeRange builds cases [lo, hi) of the campaign's
// deterministic sequence. Scenario mode delegates to the scenario's
// range expansion; grid mode resolves workload lo/span with the seed
// parameter swept fastest (workload-major order).
func (c *Campaign) MaterializeRange(lo, hi int) ([]*scenario.CaseRun, error) {
	if c.sc != nil {
		return c.sc.ExpandRange(lo, hi)
	}
	if lo < 0 || hi > c.Cases() || lo > hi {
		return nil, fmt.Errorf("sweep: %s: case range [%d, %d) outside [0, %d)", c.Spec.Name, lo, hi, c.Cases())
	}
	g := c.Spec.Grid
	span := g.Span()
	out := make([]*scenario.CaseRun, 0, hi-lo)
	for i := lo; i < hi; i++ {
		cell := c.cells[i/span]
		v := cell.values.Clone()
		v[c.seedParam] = g.SeedFrom + i%span
		rv, err := workloads.Resolve(cell.w, v)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: case %d: %w", c.Spec.Name, i, err)
		}
		clean, err := workloads.BuildWorkload(cell.w, rv)
		if err != nil {
			return nil, fmt.Errorf("sweep: %s: case %d: %w", c.Spec.Name, i, err)
		}
		out = append(out, &scenario.CaseRun{
			Index:    i,
			Family:   cell.w.Name(),
			Values:   rv,
			Params:   rv.String(),
			Workload: cell.w,
			Clean:    clean,
		})
	}
	return out, nil
}

// Header is the merged campaign file's leading trace header. Scenario
// mode reproduces scenario.Run's header exactly (scenario name and
// seed), so the merged campaign is byte-identical to a single-process
// run and replays with the existing trace tooling; grid mode names the
// sweep itself.
func (c *Campaign) Header() api.TraceHeader {
	h := api.TraceHeader{
		SchemaVersion: api.SchemaVersion,
		Record:        api.RecordTraceHeader,
		Scenario:      c.Spec.Name,
		Cases:         c.Cases(),
		Backend:       c.Backend,
		Width:         c.Width,
	}
	if c.sc != nil {
		h.Scenario = c.Spec.Scenario.Name
		h.Seed = c.Spec.Scenario.Seed
	} else {
		h.Seed = int64(c.Spec.Grid.SeedFrom)
	}
	return h
}

// summaryName is the scenario name the merged summary carries.
func (c *Campaign) summaryName() string {
	if c.sc != nil {
		return c.Spec.Scenario.Name
	}
	return c.Spec.Name
}

// ShardHeader is the header record a shard file for shard sh of this
// campaign must carry.
func (c *Campaign) ShardHeader(sh Shard) api.ShardHeader {
	return api.ShardHeader{
		SchemaVersion:  api.SchemaVersion,
		Record:         api.RecordShardHeader,
		Campaign:       c.Spec.Name,
		CampaignDigest: c.Digest,
		Shard:          sh.Index,
		Shards:         sh.Count,
		From:           sh.From,
		To:             sh.To,
		Backend:        c.Backend,
	}
}
