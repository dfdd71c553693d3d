package scenario

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/api"
	"repro/internal/flow"
	"repro/internal/rtg"
	"repro/internal/workloads"
)

// Options configure a scenario run (and a replay or counterfactual,
// which reuse the same execution path).
type Options struct {
	// Backend selects the simulator backend; "" uses the spec's Backend,
	// then the flow default.
	Backend string
	// Width overrides the datapath width; 0 uses the spec's Width, then
	// the compiler default.
	Width int
	// DisableFaults runs the campaign with injection off — the
	// "faults off" counterfactual dimension.
	DisableFaults bool
	// Flow appends extra pipeline options (clock period, cycle caps,
	// observers). Backend and width come from the fields above.
	Flow []flow.Option
}

// Result is one executed campaign: the trace records it emitted.
type Result struct {
	Header  api.TraceHeader
	Cases   []api.TraceCase
	Summary api.TraceSummary
}

// OK reports a fully green campaign: every case completed, verified,
// and satisfied its fault policy.
func (r *Result) OK() bool { return r.Summary.OK }

// Trace views the result as a trace (for CompareTraces and
// Counterfactual without a round trip through a file).
func (r *Result) Trace() *Trace {
	s := r.Summary
	return &Trace{Header: r.Header, Cases: r.Cases, Summary: &s}
}

// Run expands the scenario and executes every case in sequence on one
// backend, streaming the versioned trace records (header, one line per
// case, trailing summary) to trace as they happen; a nil trace skips
// recording. The returned Result holds the same records. Designs are
// prepared once per resolved parameterization and reseeded per case, so
// repeated draws ride the reconfiguration replay cache. An execution
// error still writes the trailing summary (with Error set) before
// returning.
func (sc *Scenario) Run(ctx context.Context, opts Options, trace io.Writer) (*Result, error) {
	runs, err := sc.Expand()
	if err != nil {
		return nil, err
	}
	if opts.Backend == "" {
		opts.Backend = sc.Spec.Backend
	}
	if opts.Width == 0 {
		opts.Width = sc.Spec.Width
	}
	return execute(ctx, sc.Spec.Name, sc.Spec.Seed, runs, opts, trace)
}

// Summarize folds executed case records into the trailing summary
// record. planned is the expanded case count (which equals len(cases)
// only when every case executed); errMsg is the execution error, if
// any. Deterministic: the sweep coordinator recomputes the merged
// campaign's summary from decoded shard cases with this same fold and
// gets bytes identical to a single-process run.
func Summarize(name string, planned int, cases []api.TraceCase, errMsg string) api.TraceSummary {
	s := api.TraceSummary{
		SchemaVersion: api.SchemaVersion,
		Record:        api.RecordTraceSummary,
		Scenario:      name,
		Cases:         planned,
	}
	for i := range cases {
		rec := &cases[i]
		if rec.Passed {
			s.Passed++
		} else {
			s.Failed++
		}
		if !rec.PolicyOK {
			s.PolicyViolations++
		}
		s.FaultsInjected += len(rec.Faults)
		switch rec.FaultOutcome {
		case api.OutcomeRecovered:
			s.Recovered++
		case api.OutcomeDiverged:
			s.Diverged++
		}
		for _, cfg := range rec.Configs {
			s.Configs++
			s.Cycles += cfg.Cycles
			s.Events += cfg.Events
		}
	}
	s.Error = errMsg
	s.OK = errMsg == "" && s.Failed == 0 && s.PolicyViolations == 0
	return s
}

// execute frames Stream with the trace header and the trailing
// summary: the shared tail of Run, Replay and Counterfactual.
func execute(ctx context.Context, name string, seed int64, runs []*CaseRun, opts Options, trace io.Writer) (*Result, error) {
	backend := opts.Backend
	if backend == "" {
		backend = flow.DefaultBackend
	}
	res := &Result{Header: api.TraceHeader{
		SchemaVersion: api.SchemaVersion,
		Record:        api.RecordTraceHeader,
		Scenario:      name,
		Seed:          seed,
		Cases:         len(runs),
		Backend:       backend,
		Width:         opts.Width,
		FaultsOff:     opts.DisableFaults,
	}}
	var enc *json.Encoder
	if trace != nil {
		enc = json.NewEncoder(trace)
		if err := enc.Encode(res.Header); err != nil {
			return res, fmt.Errorf("scenario: write trace: %w", err)
		}
	}
	var err error
	res.Cases, err = Stream(ctx, runs, opts, trace)
	errMsg := ""
	if err != nil {
		err = fmt.Errorf("scenario: %s: %w", name, err)
		errMsg = err.Error()
	}
	res.Summary = Summarize(name, len(runs), res.Cases, errMsg)
	if enc != nil {
		if werr := enc.Encode(res.Summary); werr != nil && err == nil {
			err = fmt.Errorf("scenario: write trace: %w", werr)
		}
	}
	return res, err
}

// Stream executes materialized cases in order on one pipeline and one
// prepared-design cache, encoding each trace-case record as one line to
// w; a nil w skips recording. Designs are prepared once per resolved
// parameterization and reused from the replay cache on repeated keys,
// so the records of any slice of an ExpandRange equal the same slice of
// a full Run. On error it returns the records executed so far; the
// error names the failing case, and the caller adds the campaign or
// shard.
func Stream(ctx context.Context, runs []*CaseRun, opts Options, w io.Writer) ([]api.TraceCase, error) {
	// flow.New and the compiler resolve "" and 0 to their defaults.
	pipeOpts := []flow.Option{flow.WithBackend(opts.Backend), flow.WithWidth(opts.Width)}
	pipe, err := flow.New(append(pipeOpts, opts.Flow...)...)
	if err != nil {
		return nil, err
	}
	cache := map[string]*flow.PreparedDesign{}
	var enc *json.Encoder
	if w != nil {
		enc = json.NewEncoder(w)
	}
	recs := make([]api.TraceCase, 0, len(runs))
	for _, cr := range runs {
		rec, err := runCase(ctx, pipe, cache, cr, opts)
		if err != nil {
			return recs, fmt.Errorf("case %d (%s,%s): %w", cr.Index, cr.Family, cr.Params, err)
		}
		recs = append(recs, *rec)
		if enc != nil {
			if err := enc.Encode(rec); err != nil {
				return recs, fmt.Errorf("write trace: %w", err)
			}
		}
	}
	return recs, nil
}

// runCase executes one materialized case: prepare (or fetch) the
// design, reseed with the (possibly faulted) inputs, simulate, verify
// against the golden interpreter plus the reference model on the same
// inputs, and judge the fault outcome against the clean reference.
func runCase(ctx context.Context, pipe *flow.Pipeline, cache map[string]*flow.PreparedDesign, cr *CaseRun, opts Options) (*api.TraceCase, error) {
	pd, ok := cache[cr.Key()]
	if !ok {
		var err error
		pd, err = pipe.PrepareContext(ctx, flow.Source{
			Name:       cr.Family + "(" + cr.Params + ")",
			Text:       cr.Clean.Source,
			Func:       cr.Clean.Func,
			ArraySizes: cr.Clean.ArraySizes,
			ScalarArgs: cr.Clean.ScalarArgs,
			Inputs:     cr.Clean.Inputs,
			Expected:   cr.Clean.Expected,
		})
		if err != nil {
			return nil, err
		}
		cache[cr.Key()] = pd
	}

	inputs := cr.Clean.Inputs
	expected := cr.Clean.Expected
	faults := cr.Faults
	if opts.DisableFaults {
		faults = nil
	}
	if len(faults) > 0 {
		inputs = applyFaults(inputs, cr.Clean.ArraySizes, faults)
		// Under faults the verdict is pure model consistency — the
		// simulator against the golden interpreter on identical faulted
		// stimulus. The pure-Go reference pins stay out of it (they are
		// only guaranteed to match on clean, in-domain inputs) and judge
		// recovery separately against the clean expectations below.
		expected = nil
	}
	names := make([]string, 0, len(cr.Clean.ArraySizes))
	for n := range cr.Clean.ArraySizes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		words := make([]int64, cr.Clean.ArraySizes[n])
		copy(words, inputs[n])
		if err := pd.SetSeed(n, words); err != nil {
			return nil, err
		}
	}

	sim, err := pd.SimulateContext(ctx)
	if err != nil {
		return nil, err
	}
	rec := &api.TraceCase{
		SchemaVersion: api.SchemaVersion,
		Record:        api.RecordTraceCase,
		Index:         cr.Index,
		Family:        cr.Family,
		Params:        cr.Params,
		ArrivalNS:     cr.ArrivalNS,
		Policy:        cr.Policy,
		Faults:        faults,
		Completed:     sim.Completed,
		MemoryDigest:  digestMemories(sim.Memories),
		SinkDigest:    digestSinks(sim.Runs),
	}
	for _, run := range sim.Runs {
		rec.Configs = append(rec.Configs, api.TraceConfig{
			ID: run.ID, Cycles: run.Cycles, Events: run.Events, FinalState: run.FinalState,
		})
	}
	if sim.Completed {
		c2 := *pd.Compiled()
		c2.Source.Inputs = inputs
		c2.Source.Expected = expected
		v, err := pipe.Verify(&c2, sim)
		if err != nil {
			return nil, err
		}
		rec.Passed = v.Passed
	}
	if len(faults) > 0 {
		rec.FaultOutcome = faultOutcome(cr.Clean, sim.Memories)
	}
	rec.PolicyOK = policyOK(cr.Policy, len(faults), rec)
	return rec, nil
}

// faultOutcome compares the faulted run's pure outputs (arrays the
// reference models but the stimulus does not seed) against the clean
// expectations: recovered means the fault was absorbed before it
// reached any output.
func faultOutcome(clean *workloads.Case, memories map[string][]int64) string {
	names := make([]string, 0, len(clean.Expected))
	for name := range clean.Expected {
		if _, isInput := clean.Inputs[name]; !isInput {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		want := clean.Expected[name]
		got := memories[name]
		for i, w := range want {
			if i >= len(got) || got[i] != w {
				return api.OutcomeDiverged
			}
		}
	}
	return api.OutcomeRecovered
}

// policyOK judges a case record against its fault policy. With nothing
// injected (observe at a low rate, or a faults-off counterfactual)
// there is nothing to judge; failed verdicts are already counted by the
// summary's Failed.
func policyOK(policy string, injected int, rec *api.TraceCase) bool {
	if injected == 0 {
		return true
	}
	switch policy {
	case api.PolicyMustRecover:
		return rec.Completed && rec.Passed && rec.FaultOutcome == api.OutcomeRecovered
	case api.PolicyMustFail:
		return rec.Completed && rec.Passed && rec.FaultOutcome == api.OutcomeDiverged
	default:
		return true
	}
}

// The record digests are FNV-1a (hash/fnv) over a framed byte stream:
// each name ends in a 0 byte, and each run of little-endian words in a
// 1 byte. Each function drives its own hash, rather than sharing a
// helper that takes a hash.Hash64, so the Write calls devirtualize and
// a digest allocates nothing beyond its hex string.
var (
	endName  = []byte{0}
	endWords = []byte{1}
)

// digestMemories hashes every final shared memory (sorted by name) into
// a stable 16-hex-digit digest.
func digestMemories(memories map[string][]int64) string {
	names := make([]string, 0, len(memories))
	for name := range memories {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	var word [8]byte
	for _, name := range names {
		h.Write([]byte(name))
		h.Write(endName)
		for _, w := range memories[name] {
			binary.LittleEndian.PutUint64(word[:], uint64(w))
			h.Write(word[:])
		}
		h.Write(endWords)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// digestSinks hashes every configuration's recorded sink streams in
// walk order.
func digestSinks(runs []rtg.ConfigRun) string {
	h := fnv.New64a()
	var word [8]byte
	for _, run := range runs {
		h.Write([]byte(run.ID))
		h.Write(endName)
		ids := make([]string, 0, len(run.Sinks))
		for id := range run.Sinks {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			h.Write([]byte(id))
			h.Write(endName)
			for _, w := range run.Sinks[id] {
				binary.LittleEndian.PutUint64(word[:], uint64(w))
				h.Write(word[:])
			}
			h.Write(endWords)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
