package scenario

import (
	"context"
	"fmt"
	"io"

	"repro/internal/workloads"
)

// Rebuild turns a decoded trace back into materialized cases: every
// family is rebuilt from workloads.Default under its recorded resolved
// parameters, and every recorded fault is re-validated against the
// rebuilt clean inputs (word in range, before-value matching, after =
// before with the recorded bit flipped). Nothing is re-drawn from the
// seed — the trace is the complete record of every decision.
func Rebuild(tr *Trace) ([]*CaseRun, error) {
	out := make([]*CaseRun, 0, len(tr.Cases))
	for i := range tr.Cases {
		tc := &tr.Cases[i]
		spec := tc.Family
		if tc.Params != "" {
			spec += "," + tc.Params
		}
		name, v, err := workloads.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: trace case %d: %w", tc.Index, err)
		}
		w, err := workloads.Default.Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("scenario: trace case %d: %w", tc.Index, err)
		}
		rv, err := workloads.Resolve(w, v)
		if err != nil {
			return nil, fmt.Errorf("scenario: trace case %d: %w", tc.Index, err)
		}
		clean, err := workloads.BuildWorkload(w, rv)
		if err != nil {
			return nil, fmt.Errorf("scenario: trace case %d: %w", tc.Index, err)
		}
		cr := &CaseRun{
			Index:     tc.Index,
			Family:    name,
			Values:    rv,
			Params:    rv.String(),
			ArrivalNS: tc.ArrivalNS,
			Policy:    tc.Policy,
			Faults:    tc.Faults,
			Workload:  w,
			Clean:     clean,
		}
		if cr.Params != tc.Params {
			return nil, fmt.Errorf("scenario: trace case %d: params %q do not resolve canonically (got %q) against this registry",
				tc.Index, tc.Params, cr.Params)
		}
		if err := checkFaultRecords(cr, cr.Faults); err != nil {
			return nil, fmt.Errorf("scenario: trace case %d: %w", tc.Index, err)
		}
		out = append(out, cr)
	}
	return out, nil
}

// Replay re-executes a recorded trace. With zero-value options it runs
// on the trace's own backend and width and must be bit-identical over
// the compared identity set (see CompareTraces); options substitute
// dimensions, which is what Counterfactual wraps. The trace records
// stream to trace when non-nil, exactly like Run.
func Replay(ctx context.Context, tr *Trace, opts Options, trace io.Writer) (*Result, error) {
	runs, err := Rebuild(tr)
	if err != nil {
		return nil, err
	}
	if opts.Backend == "" {
		opts.Backend = tr.Header.Backend
	}
	if opts.Width == 0 {
		opts.Width = tr.Header.Width
	}
	if tr.Header.FaultsOff {
		opts.DisableFaults = true
	}
	return execute(ctx, tr.Header.Scenario, tr.Header.Seed, runs, opts, trace)
}

// Substitution names the one dimension a counterfactual changes.
type Substitution struct {
	Backend   string // run on another backend
	Width     int    // run at another datapath width
	FaultsOff bool   // run with fault injection disabled
}

func (s Substitution) String() string {
	switch {
	case s.Backend != "":
		return "backend=" + s.Backend
	case s.Width != 0:
		return fmt.Sprintf("width=%d", s.Width)
	case s.FaultsOff:
		return "faults=off"
	}
	return "identity"
}

// CasePair is one case of a counterfactual diff: the recorded base run
// against the substituted variant.
type CasePair struct {
	Index       int
	Family      string
	Params      string
	BasePassed  bool
	VarPassed   bool
	BaseOutcome string
	VarOutcome  string
	MemoryEqual bool
	BaseCycles  uint64
	VarCycles   uint64
}

// CFResult is a counterfactual outcome: the variant's full result plus
// the per-case pairing against the base trace.
type CFResult struct {
	Sub     Substitution
	Base    *Trace
	Variant *Result
	Pairs   []CasePair

	// VerdictsSame reports that every case's pass/fail verdict matched
	// the base trace; OutcomesSame the same for fault outcomes;
	// MemoriesSame for final-memory digests.
	VerdictsSame bool
	OutcomesSame bool
	MemoriesSame bool
}

// Counterfactual re-runs a recorded trace with exactly one dimension
// substituted — same materialized cases, same faults (unless FaultsOff),
// other backend or width — and pairs each case's outcome against the
// base. A backend swap must keep every verdict identical (the
// cross-backend equivalence guarantee); a width change or faults-off
// run is expected to differ, and the paired summary shows where.
func Counterfactual(ctx context.Context, tr *Trace, opts Options, sub Substitution, trace io.Writer) (*CFResult, error) {
	if sub.Backend != "" {
		opts.Backend = sub.Backend
	}
	if sub.Width != 0 {
		opts.Width = sub.Width
	}
	if sub.FaultsOff {
		opts.DisableFaults = true
	}
	res, err := Replay(ctx, tr, opts, trace)
	if err != nil {
		return nil, err
	}
	cf := &CFResult{Sub: sub, Base: tr, Variant: res,
		VerdictsSame: true, OutcomesSame: true, MemoriesSame: true}
	for i := range tr.Cases {
		if i >= len(res.Cases) {
			break
		}
		b, v := &tr.Cases[i], &res.Cases[i]
		pair := CasePair{
			Index:       b.Index,
			Family:      b.Family,
			Params:      b.Params,
			BasePassed:  b.Passed,
			VarPassed:   v.Passed,
			BaseOutcome: b.FaultOutcome,
			VarOutcome:  v.FaultOutcome,
			MemoryEqual: b.MemoryDigest == v.MemoryDigest,
		}
		for _, c := range b.Configs {
			pair.BaseCycles += c.Cycles
		}
		for _, c := range v.Configs {
			pair.VarCycles += c.Cycles
		}
		if pair.BasePassed != pair.VarPassed {
			cf.VerdictsSame = false
		}
		if pair.BaseOutcome != pair.VarOutcome {
			cf.OutcomesSame = false
		}
		if !pair.MemoryEqual {
			cf.MemoriesSame = false
		}
		cf.Pairs = append(cf.Pairs, pair)
	}
	return cf, nil
}

// Report renders the paired diff summary.
func (cf *CFResult) Report(w io.Writer) {
	fmt.Fprintf(w, "counterfactual %s on trace %q (%d cases, base backend %s)\n",
		cf.Sub, cf.Base.Header.Scenario, len(cf.Pairs), cf.Base.Header.Backend)
	for _, p := range cf.Pairs {
		mark := "="
		if p.BasePassed != p.VarPassed || p.BaseOutcome != p.VarOutcome || !p.MemoryEqual {
			mark = "!"
		}
		fmt.Fprintf(w, "  %s case %2d %s(%s): passed %v->%v", mark, p.Index, p.Family, p.Params, p.BasePassed, p.VarPassed)
		if p.BaseOutcome != "" || p.VarOutcome != "" {
			fmt.Fprintf(w, " outcome %s->%s", orDash(p.BaseOutcome), orDash(p.VarOutcome))
		}
		fmt.Fprintf(w, " mem-equal %v cycles %d->%d\n", p.MemoryEqual, p.BaseCycles, p.VarCycles)
	}
	fmt.Fprintf(w, "  verdicts-same %v outcomes-same %v memories-same %v\n",
		cf.VerdictsSame, cf.OutcomesSame, cf.MemoriesSame)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
