package flow

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/xmlspec"
)

// PreparedDesign is the amortized entry point of the flow: compile and
// elaborate once, then Run (or Simulate) the same wired design many
// times. Each round reseeds every shared memory from the prepared seed
// images and walks the RTG; because the controller keeps its
// reconfiguration replay cache across rounds, every round after the
// first resets and replays the cached component graphs instead of
// rebuilding them. Repeat-heavy workloads — benchmark best-of-N reps,
// verify sweeps, iterative RodFIter/erasure-style loops — pay for
// elaboration once instead of once per run.
//
// A PreparedDesign owns live simulators, so rounds are inherently
// serial — but the design is safe for concurrent use: Run, Simulate,
// SetSeed and their context variants serialize on an internal mutex, so
// each reseed-simulate round is atomic with respect to other
// goroutines. Concurrent callers share one cache and take turns; for
// parallel rounds, prepare one design per goroutine (the suite runner
// prepares per case), or pool sessions (see Session).
type PreparedDesign struct {
	p        *Pipeline
	name     string
	compiled *Compiled // nil when prepared from a loaded design
	elab     *Elaborated

	// mu makes each reseed-and-simulate round atomic; it also guards
	// seeds and runs.
	mu    sync.Mutex
	seeds map[string][]int64
	runs  int
}

// Prepare compiles and elaborates one source, capturing its input
// images as the seeds every subsequent Run starts from. The returned
// design's Run amortizes the compile and elaborate stages across calls.
func (p *Pipeline) Prepare(src Source) (*PreparedDesign, error) {
	c, err := p.Compile(src)
	if err != nil {
		return nil, err
	}
	e, err := p.Elaborate(c)
	if err != nil {
		return nil, err
	}
	d := &PreparedDesign{p: p, name: src.name(), compiled: c, elab: e, seeds: map[string][]int64{}}
	for name, depth := range src.ArraySizes {
		words := make([]int64, depth)
		copy(words, src.Inputs[name])
		d.seeds[name] = words
	}
	return d, nil
}

// PrepareContext is Prepare under a per-call cancellation context: the
// compile and elaborate stages honor ctx, but the returned design does
// NOT keep it — later rounds poll the pipeline's configured context (or
// a RunContext/SimulateContext per-round one), so a session prepared
// under a request deadline outlives that request. A nil ctx is plain
// Prepare.
func (p *Pipeline) PrepareContext(ctx context.Context, src Source) (*PreparedDesign, error) {
	if ctx == nil {
		return p.Prepare(src)
	}
	pc := *p
	pc.cfg.Context = ctx
	d, err := pc.Prepare(src)
	if err != nil {
		return nil, err
	}
	// Detach the prepare-time context: the controller captured ctx at
	// elaboration, and it must not cancel future rounds.
	d.p = p
	d.elab.Controller.SetContext(p.cfg.Context)
	return d, nil
}

// PrepareDesign builds a reusable prepared design from an
// already-compiled design (e.g. an rtg.xml bundle loaded from disk).
// Seeds start empty — every shared memory zero-fills on each Run —
// until SetSeed provides contents.
func (p *Pipeline) PrepareDesign(design *xmlspec.Design) (*PreparedDesign, error) {
	e, err := p.ElaborateDesign(design)
	if err != nil {
		return nil, err
	}
	return &PreparedDesign{p: p, name: e.Name, elab: e, seeds: map[string][]int64{}}, nil
}

// Name returns the prepared case or design name.
func (d *PreparedDesign) Name() string { return d.name }

// Compiled returns the compile-stage result (nil when prepared from a
// loaded design).
func (d *PreparedDesign) Compiled() *Compiled { return d.compiled }

// Elaborated returns the underlying elaborated design.
func (d *PreparedDesign) Elaborated() *Elaborated { return d.elab }

// Runs reports how many simulation rounds this design has served.
func (d *PreparedDesign) Runs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.runs
}

// SetSeed replaces the contents a shared memory is reseeded with at the
// start of every Run. The words are copied. Unknown memories error.
func (d *PreparedDesign) SetSeed(name string, words []int64) error {
	for _, id := range d.elab.MemoryIDs() {
		if id == name {
			d.mu.Lock()
			d.seeds[name] = append([]int64(nil), words...)
			d.mu.Unlock()
			return nil
		}
	}
	return fmt.Errorf("flow: %s: unknown shared memory %q", d.name, name)
}

// Simulate reseeds every shared memory (seed image, or zeros when none
// was provided) and walks the RTG once, streaming to the pipeline's
// observers exactly like Pipeline.Simulate. The round — reseed plus
// walk — is atomic with respect to concurrent rounds.
func (d *PreparedDesign) Simulate() (*SimResult, error) {
	return d.SimulateContext(nil)
}

// SimulateContext is Simulate under a per-round cancellation context
// (nil falls back to the pipeline's configured context).
func (d *PreparedDesign) SimulateContext(ctx context.Context) (*SimResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, id := range d.elab.MemoryIDs() {
		if err := d.elab.LoadMemory(id, d.seeds[id]); err != nil {
			return nil, err
		}
	}
	d.runs++
	return d.p.simulateCtx(d.elab, ctx)
}

// SimulateGang runs one RTG walk for a whole population of lanes: lane
// i starts from the prepared seeds overlaid with laneSeeds[i] (keyed by
// shared-memory id; a nil map or missing id keeps the prepared seed),
// and every lane walks the same configuration sequence. On a
// gang-capable backend (see BackendInfo.SupportsGang) the lanes are
// evaluated in lockstep inside one compiled instance per configuration;
// other backends run the lanes sequentially on the replay cache. The
// whole gang is one atomic round with respect to concurrent rounds, and
// observers are not streamed per lane.
func (d *PreparedDesign) SimulateGang(laneSeeds []map[string][]int64) ([]*SimResult, error) {
	return d.SimulateGangContext(nil, laneSeeds)
}

// SimulateGangContext is SimulateGang under a per-round cancellation
// context (nil falls back to the pipeline's configured context).
func (d *PreparedDesign) SimulateGangContext(ctx context.Context, laneSeeds []map[string][]int64) ([]*SimResult, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	// Reseed the controller store: lanes without an override start from
	// the prepared seed images, exactly like a plain Simulate round.
	for _, id := range d.elab.MemoryIDs() {
		if err := d.elab.LoadMemory(id, d.seeds[id]); err != nil {
			return nil, err
		}
	}
	lanes, err := d.elab.Controller.ExecuteGangContext(ctx, laneSeeds)
	if err != nil {
		return nil, err
	}
	d.runs++
	out := make([]*SimResult, len(lanes))
	for l, lane := range lanes {
		s := &SimResult{
			Runs:      lane.Exec.Runs,
			Completed: lane.Exec.Completed,
			Memories:  lane.Memories,
		}
		s.TotalCycles = lane.Exec.TotalCycles
		for _, run := range lane.Exec.Runs {
			s.Events += run.Events
			s.SimWall += run.Wall
		}
		out[l] = s
	}
	return out, nil
}

// Run is one full verification round on the prepared design: reseed,
// simulate, and — when the design was prepared from source and the
// simulation completed — verify against the golden interpreter. The
// Verdict is nil when no verification ran (loaded design or exhausted
// cycle cap), mirroring Pipeline.Run.
func (d *PreparedDesign) Run() (*Outcome, error) {
	return d.RunContext(nil)
}

// RunContext is Run under a per-round cancellation context. The
// simulate round is serialized with concurrent rounds; the verify stage
// runs outside the round lock (it touches only this round's results),
// so one goroutine's verification overlaps the next goroutine's
// simulation.
func (d *PreparedDesign) RunContext(ctx context.Context) (*Outcome, error) {
	s, err := d.SimulateContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &Outcome{Compiled: d.compiled, Sim: s}
	if d.compiled == nil || !s.Completed {
		return out, nil
	}
	v, err := d.p.Verify(d.compiled, s)
	if err != nil {
		return nil, err
	}
	out.Verdict = v
	return out, nil
}
