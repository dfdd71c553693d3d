// Package core is the regression-suite façade of the test
// infrastructure: it keeps the suite automation that replaces the ANT
// build (TestCase, CaseResult, the parallel Runner) and delegates the
// actual verification flow of the paper's Figure 1 — compile →
// transform → elaborate → simulate → verify — to internal/flow, which
// owns the staged pipeline, the defaults, the observers and the
// simulator backend choice.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/flow"
	"repro/internal/hades"
	"repro/internal/memfile"
	"repro/internal/xmlspec"
)

// Options tunes a flow run. The zero value is fully usable: every
// unset field resolves to the flow defaults (flow.DefaultClockPeriod,
// flow.DefaultMaxCycles, …) — core itself holds no default values.
type Options struct {
	Width          int
	AutoPartitions int
	ClockPeriod    int64  // simulator ticks; 0: flow.DefaultClockPeriod
	MaxCycles      uint64 // per configuration; 0: flow.DefaultMaxCycles
	WorkDir        string // when set, XML/dot/java/hds/mem artifacts are written here
	EmitArtifacts  bool   // emit dot/java/hds translations (requires WorkDir)
	Backend        string // simulator backend name; "": flow.DefaultBackend
	// Observers stream stage and per-configuration progress for every
	// case run with these options (reporting sinks, VCD taps, …). The
	// same instances are shared by every case, and a parallel Runner
	// runs cases concurrently: observers used with Workers > 1 must be
	// safe for concurrent use (flow.VCDObserver in particular is
	// per-run; see its doc).
	Observers []flow.Observer
}

// FlowOptions renders the options as the flow functional options they
// resolve to.
func (o Options) FlowOptions() []flow.Option {
	fo := []flow.Option{
		flow.WithWidth(o.Width),
		flow.WithAutoPartitions(o.AutoPartitions),
		flow.WithWorkDir(o.WorkDir),
		flow.WithArtifacts(o.EmitArtifacts),
		flow.WithBackend(o.Backend),
	}
	if o.ClockPeriod > 0 {
		fo = append(fo, flow.WithClock(hades.Time(o.ClockPeriod)))
	}
	if o.MaxCycles > 0 {
		fo = append(fo, flow.WithMaxCycles(o.MaxCycles))
	}
	for _, obs := range o.Observers {
		fo = append(fo, flow.WithObserver(obs))
	}
	return fo
}

// TestCase is one entry of the regression suite: a MiniJ source, its
// design parameters, and the initial memory contents.
type TestCase struct {
	Name       string
	Source     string
	Func       string
	ArraySizes map[string]int
	ScalarArgs map[string]int64
	Inputs     map[string][]int64
	// Expected optionally pins exact expected contents per array,
	// checked on top of the golden interpreter's result (the paper's
	// flow); an array matching the interpreter but not its pin fails.
	Expected map[string][]int64
}

// FlowSource renders the case as a flow pipeline source.
func (tc TestCase) FlowSource() flow.Source {
	return flow.Source{
		Name:       tc.Name,
		Text:       tc.Source,
		Func:       tc.Func,
		ArraySizes: tc.ArraySizes,
		ScalarArgs: tc.ScalarArgs,
		Inputs:     tc.Inputs,
		Expected:   tc.Expected,
	}
}

// PartitionStats reports one configuration for the Table I columns; the
// line-count columns come from the case's Compiled.LoC.
type PartitionStats struct {
	ID              string
	Operators       int
	States          int
	Cycles          uint64
	SimWall         time.Duration
	SimulatedEvents uint64
}

// CaseResult reports one verified test case.
type CaseResult struct {
	Name       string
	Passed     bool
	Skipped    bool // true when fail-fast or cancellation skipped the case
	Replays    int  // simulate-and-verify rounds run on the prepared design (>= 1)
	Mismatches map[string][]memfile.Mismatch
	Partitions []PartitionStats
	SourceLoC  int
	TotalOps   int
	Wall       time.Duration // end-to-end case wall time (set by the suite runner)
	SimWall    time.Duration
	RefWall    time.Duration
	RefSteps   uint64
	Artifacts  map[string]string // label -> path (when WorkDir set)
	// Compiled is the design the case ran (nil when the case errored or
	// was skipped before compiling); its LoC renders the Table I line
	// counts.
	Compiled *flow.Compiled
	Err      error
}

// OK reports whether the case ran to completion and verified.
func (r *CaseResult) OK() bool { return r.Passed && r.Err == nil && !r.Skipped }

// Events sums the simulated kernel events across all partitions.
func (r *CaseResult) Events() uint64 {
	var n uint64
	for _, p := range r.Partitions {
		n += p.SimulatedEvents
	}
	return n
}

// Failed lists the arrays with mismatches.
func (r *CaseResult) Failed() []string {
	var out []string
	for name, ms := range r.Mismatches {
		if len(ms) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// Summary renders a one-line report.
func (r *CaseResult) Summary() string {
	status := "PASS"
	if r.Skipped {
		status = "SKIP"
	} else if !r.Passed {
		status = "FAIL"
	}
	return fmt.Sprintf("%-12s %s ops=%d sim=%v ref=%v", r.Name, status, r.TotalOps, r.SimWall, r.RefWall)
}

// CompileOnly compiles a test case's source to its design without
// simulating, for tooling and benchmarks that manage execution directly.
func CompileOnly(tc TestCase, opts Options) (*xmlspec.Design, error) {
	p, err := flow.New(opts.FlowOptions()...)
	if err != nil {
		return nil, err
	}
	c, err := p.Compile(tc.FlowSource())
	if err != nil {
		return nil, err
	}
	return c.Design, nil
}

// RunCase executes the full verification flow for one case with no
// cancellation; see RunCaseContext.
func RunCase(tc TestCase, opts Options) (*CaseResult, error) {
	return RunCaseContext(context.Background(), tc, opts)
}

// RunCaseContext executes the full verification flow for one case
// through the flow pipeline: compile → emit/validate XML → (optionally
// translate to dot/java/hds) → simulate through the RTG on the selected
// backend → run the golden algorithm on copies of the memory files →
// compare memory contents. The context cancels the flow between stages
// and is polled by the event kernel once per simulated instant, so a
// timed-out case fails promptly instead of hanging the suite.
func RunCaseContext(ctx context.Context, tc TestCase, opts Options) (*CaseResult, error) {
	return RunCaseRepeatContext(ctx, tc, opts, 1)
}

// RunCaseRepeatContext is RunCaseContext with the case's design
// prepared once and the simulate-and-verify round run reps times
// through the reconfiguration replay cache — the verify-sweep shape
// that amortizes compile and elaboration across rounds. Every round
// must verify; the recorded per-partition statistics and SimWall come
// from the final round (replayed rounds are trace-identical, so the
// rounds agree).
func RunCaseRepeatContext(ctx context.Context, tc TestCase, opts Options, reps int) (*CaseResult, error) {
	if reps <= 0 {
		reps = 1
	}
	p, err := flow.New(opts.FlowOptions()...)
	if err != nil {
		return nil, err
	}
	res := &CaseResult{Name: tc.Name, Mismatches: map[string][]memfile.Mismatch{}, Artifacts: map[string]string{}}

	d, err := p.PrepareContext(ctx, tc.FlowSource())
	if err != nil {
		return nil, err
	}
	c := d.Compiled()
	res.Compiled = c
	res.SourceLoC = c.SourceLoC
	res.TotalOps = c.TotalOps
	for _, pi := range c.Partitions {
		res.Partitions = append(res.Partitions, PartitionStats{
			ID:        pi.ID,
			Operators: pi.Operators,
			States:    pi.States,
		})
	}
	for label, path := range c.Artifacts {
		res.Artifacts[label] = path
	}

	for rep := 0; rep < reps; rep++ {
		out, err := d.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		sim := out.Sim
		res.Replays = rep + 1
		for i, run := range sim.Runs {
			if i < len(res.Partitions) {
				res.Partitions[i].Cycles = run.Cycles
				res.Partitions[i].SimWall = run.Wall
				res.Partitions[i].SimulatedEvents = run.Events
			}
		}
		res.SimWall = sim.SimWall
		for label, path := range sim.Artifacts {
			res.Artifacts[label] = path
		}
		v := out.Verdict
		if v == nil {
			res.Passed = false
			res.Err = fmt.Errorf("core: %s: simulation incomplete after cycle cap (round %d of %d)", tc.Name, rep+1, reps)
			return res, nil
		}
		res.Passed = v.Passed
		res.Mismatches = v.Mismatches
		res.RefWall = v.RefWall
		res.RefSteps = v.RefSteps
		if !v.Passed {
			return res, nil // mismatches mark the failure, as in the single-round flow
		}
	}
	return res, nil
}
