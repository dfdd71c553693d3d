// Package repro reproduces "An Infrastructure to Functionally Test
// Designs Generated by Compilers Targeting FPGAs" (Rodrigues & Cardoso,
// DATE 2005) as a Go library.
//
// The public surface is the flow pipeline API re-exported here from
// internal/flow — typed stages (Source → Compiled → PreparedDesign →
// SimResult → Verdict), functional options, streaming observers and a
// choice of two simulator backends, the hades event kernel and the
// compiled cycle engine; see docs/FLOW.md for the tour
// and examples/quickstart for the smallest complete program. The
// regression-suite automation on top of it lives in internal/core, the
// benchmark harness in internal/bench; bench_test.go regenerates every
// table and figure of the paper's evaluation.
package repro

import (
	"context"
	"io"
	"net/http"

	"repro/internal/api"
	"repro/internal/flow"
	"repro/internal/hades"
	"repro/internal/scenario"
	"repro/internal/simd"
	"repro/internal/sweep"
	"repro/internal/workloads"
)

// The pipeline API. See the internal/flow documentation for details.
type (
	// Pipeline executes the verification flow under one resolved Config.
	Pipeline = flow.Pipeline
	// Config is a pipeline's resolved configuration.
	Config = flow.Config
	// Option is a functional configuration option for New.
	Option = flow.Option
	// Source is the pipeline's entry value: one MiniJ function with its
	// design parameters and initial memory contents.
	Source = flow.Source
	// Compiled is the compile stage's typed result.
	Compiled = flow.Compiled
	// PreparedDesign is a compiled-and-elaborated design reused across
	// Run calls: repeat runs reset and replay the cached configuration
	// graphs instead of re-elaborating (see Pipeline.Prepare).
	PreparedDesign = flow.PreparedDesign
	// SimResult is the simulate stage's typed result.
	SimResult = flow.SimResult
	// Verdict is the verify stage's typed result (the paper's pass criterion).
	Verdict = flow.Verdict
	// Outcome bundles every stage value of one full pipeline run.
	Outcome = flow.Outcome
	// Observer streams stage and per-configuration progress.
	Observer = flow.Observer
	// BaseObserver is a no-op Observer to embed.
	BaseObserver = flow.BaseObserver
	// StageName identifies a pipeline stage in observer callbacks.
	StageName = flow.StageName
	// BackendInfo is the public descriptor of a simulator backend.
	BackendInfo = flow.BackendInfo
	// BackendKind classifies a backend as event-driven or cycle-based.
	BackendKind = flow.BackendKind
)

// Canonical flow defaults — the single source of truth for clock
// period, cycle cap and reconfiguration bound.
const (
	DefaultClockPeriod = flow.DefaultClockPeriod
	DefaultMaxCycles   = flow.DefaultMaxCycles
	DefaultMaxConfigs  = flow.DefaultMaxConfigs
	DefaultBackend     = flow.DefaultBackend
)

// New resolves the options into a Pipeline.
func New(opts ...Option) (*Pipeline, error) { return flow.New(opts...) }

// Run is the one-call flow: compile, elaborate, simulate and verify src
// under the given options.
func Run(src Source, opts ...Option) (*Outcome, error) {
	p, err := flow.New(opts...)
	if err != nil {
		return nil, err
	}
	return p.Run(src)
}

// WithWidth sets the datapath word width.
func WithWidth(w int) Option { return flow.WithWidth(w) }

// WithAutoPartitions asks the compiler to split into n temporal partitions.
func WithAutoPartitions(n int) Option { return flow.WithAutoPartitions(n) }

// WithClock sets the clock period in simulator ticks.
func WithClock(period hades.Time) Option { return flow.WithClock(period) }

// WithMaxCycles caps the simulated cycles per configuration.
func WithMaxCycles(n uint64) Option { return flow.WithMaxCycles(n) }

// WithMaxConfigs bounds the reconfiguration walk.
func WithMaxConfigs(n int) Option { return flow.WithMaxConfigs(n) }

// WithWorkDir directs the stages to write artifacts under dir/<case>.
func WithWorkDir(dir string) Option { return flow.WithWorkDir(dir) }

// WithArtifacts also emits the dot/java/hds translations.
func WithArtifacts(emit bool) Option { return flow.WithArtifacts(emit) }

// WithBackend selects the simulator backend by name (see Backends).
func WithBackend(name string) Option { return flow.WithBackend(name) }

// WithFreshElaboration(true) disables the reconfiguration replay cache,
// rebuilding every configuration per visit (for A/B measurement).
func WithFreshElaboration(fresh bool) Option { return flow.WithFreshElaboration(fresh) }

// WithObserver attaches a streaming observer (repeatable).
func WithObserver(o Observer) Option { return flow.WithObserver(o) }

// NewProgressObserver streams one line per completed configuration to w.
func NewProgressObserver(w io.Writer) Observer { return flow.NewProgressObserver(w) }

// NewVCDObserver taps every configuration with a VCD waveform dump to
// <prefix>.<cfg>.vcd, logging each file to log when non-nil.
func NewVCDObserver(prefix string, log io.Writer) Observer { return flow.NewVCDObserver(prefix, log) }

// Backends lists the backend descriptors, default first.
func Backends() []BackendInfo { return flow.Backends() }

// BackendNames lists the backend names in Backends() order.
func BackendNames() []string { return flow.BackendNames() }

// LookupBackend resolves a backend by name ("" means DefaultBackend).
func LookupBackend(name string) (BackendInfo, error) { return flow.LookupBackend(name) }

// The session layer: shared, admission-controlled use of one prepared
// design. See the internal/flow documentation for details.
type (
	// Session wraps a PreparedDesign for concurrent callers with a
	// bounded in-flight cap; rounds serialize on the replay cache.
	Session = flow.Session
	// PoolKey identifies one poolable session: a resolved workload
	// instance on one simulator backend.
	PoolKey = flow.PoolKey
	// SessionStats is a session's lifetime-counter snapshot.
	SessionStats = flow.SessionStats
)

// ErrSessionBusy reports a session at its in-flight limit (the
// fail-fast TryRun/TrySimulate signal).
var ErrSessionBusy = flow.ErrSessionBusy

// NewSession wraps a prepared design for shared use; maxInFlight bounds
// concurrent rounds.
func NewSession(key PoolKey, d *PreparedDesign, maxInFlight int) *Session {
	return flow.NewSession(key, d, maxInFlight)
}

// The simulation-service surface: the simd server, its client, and the
// versioned wire types from internal/api (the same schema the testsuite
// JSONL and bench JSON speak). See docs/SERVER.md for the protocol.
type (
	// Server is the simulation-as-a-service HTTP handler.
	Server = simd.Server
	// ServerConfig tunes a Server (workers, queue, session pool,
	// admission rate); the zero value serves with defaults.
	ServerConfig = simd.Config
	// Client speaks the simd wire protocol.
	Client = simd.Client
	// ServiceResult is one fully-decoded NDJSON response.
	ServiceResult = simd.Result
	// OverloadedError is a 429 from the server, carrying its
	// Retry-After hint.
	OverloadedError = simd.OverloadedError
	// Request is the one serializable request shape of the service.
	Request = api.Request
	// RunRecord is one NDJSON response line (config or summary).
	RunRecord = api.RunRecord
	// ServerStats is the /statsz payload.
	ServerStats = api.ServerStats
)

// NewServer builds a simulation server from the config; mount it on any
// http.Server (it implements http.Handler).
func NewServer(cfg ServerConfig) *Server { return simd.New(cfg) }

// NewClient targets a simd server base URL; httpClient nil means
// http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return simd.NewClient(baseURL, httpClient)
}

// NewRequest builds a service request for a workload with the current
// schema version stamped; chain WithBackend/WithRounds to refine it.
func NewRequest(workload string, params map[string]int) Request {
	return api.NewRequest(workload, params)
}

// The scenario engine: declarative stochastic campaign specs with
// seeded fault injection and trace record/replay/counterfactual. See
// docs/SCENARIOS.md for the spec schema and the trace workflow.
type (
	// ScenarioSpec is the declarative wire shape of a campaign.
	ScenarioSpec = api.ScenarioSpec
	// Scenario is a loaded, validated spec ready to expand and run.
	Scenario = scenario.Scenario
	// ScenarioOptions configure a scenario run, replay or counterfactual.
	ScenarioOptions = scenario.Options
	// ScenarioResult is one executed campaign's trace records.
	ScenarioResult = scenario.Result
	// Trace is a decoded scenario trace (header, cases, summary).
	Trace = scenario.Trace
	// Substitution is the one dimension a counterfactual re-run swaps.
	Substitution = scenario.Substitution
	// CFResult is a counterfactual's paired base/variant diff.
	CFResult = scenario.CFResult
)

// LoadScenario validates a decoded spec against the workload registry
// (nil reg means the default registry).
func LoadScenario(spec *ScenarioSpec, reg *workloads.Registry) (*Scenario, error) {
	return scenario.Load(spec, reg)
}

// LoadScenarioFile reads, decodes and validates a scenario spec file.
func LoadScenarioFile(path string, reg *workloads.Registry) (*Scenario, error) {
	return scenario.LoadFile(path, reg)
}

// ReadTraceFile decodes a recorded scenario trace file.
func ReadTraceFile(path string) (*Trace, error) { return scenario.ReadTraceFile(path) }

// ReplayTrace re-executes a recorded trace; the result must be
// bit-identical to the recording (CompareTraces checks).
func ReplayTrace(ctx context.Context, tr *Trace, opts ScenarioOptions, trace io.Writer) (*ScenarioResult, error) {
	return scenario.Replay(ctx, tr, opts, trace)
}

// CounterfactualTrace re-executes a recorded trace with one dimension
// substituted and returns the paired diff.
func CounterfactualTrace(ctx context.Context, tr *Trace, opts ScenarioOptions, sub Substitution, trace io.Writer) (*CFResult, error) {
	return scenario.Counterfactual(ctx, tr, opts, sub, trace)
}

// CompareTraces diffs two case sequences over the deterministic
// identity set; strict additionally compares per-config event counts
// (same-backend replays only).
func CompareTraces(a, b []api.TraceCase, strict bool) []string {
	return scenario.CompareTraces(a, b, strict)
}

// The sharded sweep coordinator: a campaign (scenario spec or
// workload x seed grid) partitioned into resumable shards, executed on
// local, subprocess or remote workers, and merged into one campaign
// trace that is byte-identical regardless of worker count,
// interleaving or resume passes. See docs/SWEEP.md.
type (
	// SweepSpec is the declarative wire shape of a sharded campaign.
	SweepSpec = api.SweepSpec
	// SweepCampaign is a loaded, validated sweep with its layout digest.
	SweepCampaign = sweep.Campaign
	// SweepShard is one contiguous case range of a campaign layout.
	SweepShard = sweep.Shard
	// SweepOptions configure one coordinator pass.
	SweepOptions = sweep.Options
	// SweepResult is one coordinator pass's merged output and accounting.
	SweepResult = sweep.Result
	// SweepEndpoint is one health-tracked worker in a dispatch fleet.
	SweepEndpoint = sweep.Endpoint
	// SweepProgress is one live snapshot of a coordinator pass.
	SweepProgress = sweep.Progress
	// SweepProgressTracker retains the latest snapshot and serves it
	// over HTTP as /progressz.
	SweepProgressTracker = sweep.ProgressTracker
)

// SweepPermanent marks a worker error as permanent: the shard's spec
// was rejected and no retry — on any endpoint — can help.
func SweepPermanent(err error) error { return sweep.Permanent(err) }

// SweepEndpointFault marks a worker error as the endpoint's fault:
// the shard requeues elsewhere without spending its retry budget.
func SweepEndpointFault(err error) error { return sweep.EndpointFault(err) }

// LoadSweep validates a sweep spec against the workload registry (nil
// reg means the default registry) and normalizes its shard layout.
func LoadSweep(spec *SweepSpec, reg *workloads.Registry) (*SweepCampaign, error) {
	return sweep.Load(spec, reg)
}

// LoadSweepFile reads, decodes and validates a sweep spec file.
func LoadSweepFile(path string, reg *workloads.Registry) (*SweepCampaign, error) {
	return sweep.LoadFile(path, reg)
}

// RunSweep executes one coordinator pass over a campaign: plan
// (skipping shards already valid when resuming), execute on the worker
// pool with retries and a fail-fast budget, validate every shard, and
// merge them into the campaign trace.
func RunSweep(ctx context.Context, c *SweepCampaign, opts SweepOptions) (*SweepResult, error) {
	return sweep.Run(ctx, c, opts)
}
