package api

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file defines the scenario-engine wire shapes: the declarative
// scenario spec consumed by `testsuite -scenario`, `hsim -scenario` and
// (embedded in a sweep spec) POST /v1/sweep/sharded, and the JSONL
// trace records the scenario runner emits. Trace records deliberately
// carry no wall-clock fields — two same-seed runs of the same spec
// produce byte-identical traces, which is what makes
// record/replay/counterfactual possible.

// Dist is one parameter distribution of a scenario spec. Exactly one of
// the three shapes is set: a constant (JSON: a bare number or
// {"const": n}), a uniform integer range over [Min, Max] (JSON:
// {"uniform": {"min": a, "max": b}}), or a choice drawn uniformly from
// an explicit list (JSON: {"choice": [a, b, c]}).
type Dist struct {
	Const   *int      `json:"const,omitempty"`
	Uniform *IntRange `json:"uniform,omitempty"`
	Choice  []int     `json:"choice,omitempty"`
}

// IntRange is an inclusive integer interval.
type IntRange struct {
	Min int `json:"min"`
	Max int `json:"max"`
}

// UnmarshalJSON accepts the bare-number constant shorthand alongside
// the object form.
func (d *Dist) UnmarshalJSON(data []byte) error {
	var n int
	if err := json.Unmarshal(data, &n); err == nil {
		d.Const, d.Uniform, d.Choice = &n, nil, nil
		return nil
	}
	type plain Dist
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("api: distribution must be a number, {\"const\":n}, {\"uniform\":{\"min\":a,\"max\":b}} or {\"choice\":[...]}: %w", err)
	}
	*d = Dist(p)
	return nil
}

// MarshalJSON renders a constant back to the bare-number shorthand.
func (d Dist) MarshalJSON() ([]byte, error) {
	if d.Const != nil && d.Uniform == nil && d.Choice == nil {
		return json.Marshal(*d.Const)
	}
	type plain Dist
	return json.Marshal(plain(d))
}

// Validate checks that exactly one shape is set and that it is sane;
// range validation against a workload schema happens at scenario load.
func (d Dist) Validate() error {
	set := 0
	if d.Const != nil {
		set++
	}
	if d.Uniform != nil {
		set++
		if d.Uniform.Min > d.Uniform.Max {
			return fmt.Errorf("api: uniform min %d > max %d", d.Uniform.Min, d.Uniform.Max)
		}
	}
	if len(d.Choice) > 0 {
		set++
	}
	if set != 1 {
		return fmt.Errorf("api: distribution needs exactly one of const, uniform, choice")
	}
	return nil
}

// MixEntry is one workload family in a scenario mix: the family name, a
// relative selection weight, and per-parameter distributions over the
// family's schema.
type MixEntry struct {
	Family string          `json:"family"`
	Weight float64         `json:"weight,omitempty"` // <=0 means 1
	Params map[string]Dist `json:"params,omitempty"`
}

// The arrival-process kinds of a scenario spec.
const (
	// ArrivalDeterministic spaces cases by a fixed interval.
	ArrivalDeterministic = "deterministic"
	// ArrivalPoisson draws exponential inter-arrival times.
	ArrivalPoisson = "poisson"
	// ArrivalGamma draws gamma-distributed inter-arrival times.
	ArrivalGamma = "gamma"
)

// ArrivalSpec is the stochastic arrival process for reconfiguration
// requests: how the scenario's cases are spaced in virtual time. A nil
// ArrivalSpec means all cases arrive at time zero.
type ArrivalSpec struct {
	Kind string `json:"kind"`
	// IntervalNS is the fixed spacing of a deterministic process.
	IntervalNS int64 `json:"interval_ns,omitempty"`
	// Rate is the mean arrivals per second of a Poisson or Gamma process.
	Rate float64 `json:"rate,omitempty"`
	// Shape is the Gamma shape parameter k (>0); 1 degenerates to Poisson.
	Shape float64 `json:"shape,omitempty"`
}

// The fault expected-outcome policies.
const (
	// PolicyObserve records each fault's outcome without judging it.
	PolicyObserve = "observe"
	// PolicyMustRecover requires the faulted output to match the clean
	// reference — the fault must be absorbed (erasure: flips confined to
	// erased symbols, which the MDS decoder reconstructs from survivors).
	PolicyMustRecover = "must-recover"
	// PolicyMustFail requires the faulted output to diverge from the
	// clean reference — the fault must propagate.
	PolicyMustFail = "must-fail"
)

// FaultPlan is a scenario's seeded fault-injection plan: bit flips into
// the initial contents of shared memories (stimulus vectors, RAM/ROM
// images) at a per-word rate, judged under a policy.
type FaultPlan struct {
	// Arrays names the memories eligible for flips; empty means every
	// input array of the case.
	Arrays []string `json:"arrays,omitempty"`
	// Rate is the per-word flip probability in [0,1].
	Rate float64 `json:"rate"`
	// Bits is how many low bits are eligible to flip (1..32, default 8).
	Bits int `json:"bits,omitempty"`
	// MaxFlips caps the flips per case (0 = unlimited).
	MaxFlips int `json:"max_flips,omitempty"`
	// Policy is the expected outcome: observe, must-recover, must-fail.
	// The must-* policies require every mix family to be "erasure", whose
	// MDS decoder provides the recovery oracle.
	Policy string `json:"policy,omitempty"` // "" = observe
}

// ScenarioSpec is the declarative, file-driven description of a
// stochastic simulation campaign: a weighted mix of workload families
// with parameter distributions, an arrival process, an optional fault
// plan, and one top-level seed every random decision derives from.
type ScenarioSpec struct {
	SchemaVersion int          `json:"schema_version,omitempty"`
	Name          string       `json:"name"`
	Seed          int64        `json:"seed"`
	Cases         int          `json:"cases"`
	Backend       string       `json:"backend,omitempty"` // "" = runner default
	Width         int          `json:"width,omitempty"`   // datapath width override
	Mix           []MixEntry   `json:"mix"`
	Arrival       *ArrivalSpec `json:"arrival,omitempty"`
	Faults        *FaultPlan   `json:"faults,omitempty"`
}

// DecodeScenarioSpec decodes one scenario spec object from r and
// checks its schema version; structural validation against a workload
// registry is the scenario package's Load.
func DecodeScenarioSpec(r io.Reader) (*ScenarioSpec, error) {
	var spec ScenarioSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("api: bad scenario spec: %w", err)
	}
	if err := CheckVersion(spec.SchemaVersion); err != nil {
		return nil, err
	}
	return &spec, nil
}

// The record discriminators of a scenario trace stream.
const (
	// RecordTraceHeader is the leading line of a trace.
	RecordTraceHeader = "scenario"
	// RecordTraceCase is one executed case of a trace.
	RecordTraceCase = "case"
	// RecordTraceSummary is the trailing aggregate line of a trace.
	RecordTraceSummary = "scenario_summary"
)

// FaultRecord is one injected bit flip: which word of which array,
// which bit, and the value before and after. Traces carry the full
// record so replay can re-apply (and cross-check) every flip without
// re-deriving it from the seed.
type FaultRecord struct {
	Array  string `json:"array"`
	Word   int    `json:"word"`
	Bit    int    `json:"bit"`
	Before int64  `json:"before"`
	After  int64  `json:"after"`
}

// TraceHeader is the first line of a scenario trace: which spec ran,
// under which seed, on which backend.
type TraceHeader struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	Record        string `json:"record"` // RecordTraceHeader
	Scenario      string `json:"scenario"`
	Seed          int64  `json:"seed"`
	Cases         int    `json:"cases"`
	Backend       string `json:"backend"`
	Width         int    `json:"width,omitempty"`
	// FaultsOff marks a counterfactual re-run with injection disabled.
	FaultsOff bool `json:"faults_off,omitempty"`
}

// TraceConfig is one executed configuration of one traced case — the
// deterministic slice of an rtg.ConfigRun (no wall clock).
type TraceConfig struct {
	ID         string `json:"id"`
	Cycles     uint64 `json:"cycles"`
	Events     uint64 `json:"events"`
	FinalState string `json:"final_state,omitempty"`
}

// TraceCase is one materialized, executed case of a scenario run: every
// decision the expander made (family, resolved params, arrival time,
// injected faults) plus the deterministic outcome (per-config walk,
// verdict, fault outcome, memory/sink digests). Replay re-executes
// these records bit-identically.
type TraceCase struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	Record        string `json:"record"` // RecordTraceCase
	Index         int    `json:"index"`
	Family        string `json:"family"`
	Params        string `json:"params"` // canonical "k=v,k=v"
	ArrivalNS     int64  `json:"arrival_ns"`

	Policy string        `json:"policy,omitempty"`
	Faults []FaultRecord `json:"faults,omitempty"`

	Configs   []TraceConfig `json:"configs"`
	Completed bool          `json:"completed"`
	Passed    bool          `json:"passed"`
	// FaultOutcome is "recovered" when the faulted run's pure outputs
	// match the clean reference, "diverged" otherwise; empty without
	// faults.
	FaultOutcome string `json:"fault_outcome,omitempty"`
	// PolicyOK reports the fault outcome against the plan's policy.
	PolicyOK bool `json:"policy_ok"`

	// MemoryDigest hashes every final shared memory; SinkDigest hashes
	// every configuration's sink streams. Both are deterministic and
	// pinned identical across backends.
	MemoryDigest string `json:"memory_digest"`
	SinkDigest   string `json:"sink_digest,omitempty"`
}

// The fault outcomes recorded in TraceCase.FaultOutcome.
const (
	// OutcomeRecovered means the faulted outputs matched the clean reference.
	OutcomeRecovered = "recovered"
	// OutcomeDiverged means the faulted outputs differed from the clean reference.
	OutcomeDiverged = "diverged"
)

// TraceSummary is the trailing line of a scenario trace: deterministic
// aggregates of the whole campaign (again, no wall clock).
type TraceSummary struct {
	SchemaVersion    int    `json:"schema_version,omitempty"`
	Record           string `json:"record"` // RecordTraceSummary
	Scenario         string `json:"scenario"`
	Cases            int    `json:"cases"`
	Passed           int    `json:"passed"`
	Failed           int    `json:"failed"`
	PolicyViolations int    `json:"policy_violations"`
	FaultsInjected   int    `json:"faults_injected"`
	Recovered        int    `json:"recovered"`
	Diverged         int    `json:"diverged"`
	Configs          uint64 `json:"configs"`
	Cycles           uint64 `json:"cycles"`
	Events           uint64 `json:"events"`
	OK               bool   `json:"ok"`
	Error            string `json:"error,omitempty"`
}
