// Package api defines the versioned, serializable wire types shared by
// every result-producing layer of the infrastructure: the regression
// suite's JSONL output (testsuite -json via core.SuiteResult.WriteJSON),
// the benchmark harness's BENCH_<name>.json files and `bench -json`
// stream, and the simd simulation server's request/response schema.
//
// There is exactly one schema. A consumer that can decode the suite
// JSONL can decode a simd NDJSON response with the same types, and every
// emitted object carries schema_version so readers can detect a future
// incompatible revision instead of silently misparsing it. Objects
// written before the field existed (the checked-in bench baselines)
// decode with SchemaVersion 0, which readers must treat as version 1 —
// the field was introduced without changing any other field's meaning.
package api

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion is the current wire schema version. Bump only on an
// incompatible change (a field renamed, retyped, or re-interpreted);
// adding fields is compatible and does not bump the version.
const SchemaVersion = 1

// CheckVersion validates a decoded object's schema_version: 0 (emitted
// before the field existed, or omitted by a request writer) and the
// current version are accepted, anything newer is rejected so an old
// reader fails loudly on output from a future writer.
func CheckVersion(v int) error {
	if v < 0 || v > SchemaVersion {
		return fmt.Errorf("api: unsupported schema_version %d (this reader speaks <= %d)", v, SchemaVersion)
	}
	return nil
}

// PartitionRecord is one temporal partition (configuration) of a case
// record — the per-partition Table I columns.
type PartitionRecord struct {
	ID        string `json:"id"`
	Operators int    `json:"operators"`
	States    int    `json:"states"`
	Cycles    uint64 `json:"cycles"`
	Events    uint64 `json:"events"`
	SimWallNS int64  `json:"sim_wall_ns"`
}

// CaseRecord is the machine-readable view of one verified regression
// case, emitted as one JSON object per line (JSON Lines) so CI can
// stream, grep, and archive it.
type CaseRecord struct {
	SchemaVersion int               `json:"schema_version,omitempty"`
	Suite         string            `json:"suite"`
	Name          string            `json:"name"`
	Passed        bool              `json:"passed"`
	Skipped       bool              `json:"skipped,omitempty"`
	Replays       int               `json:"replays,omitempty"`
	Error         string            `json:"error,omitempty"`
	WallNS        int64             `json:"wall_ns"`
	SimWallNS     int64             `json:"sim_wall_ns"`
	RefWallNS     int64             `json:"ref_wall_ns"`
	SourceLoC     int               `json:"source_loc"`
	TotalOps      int               `json:"total_ops"`
	Events        uint64            `json:"events"`
	RefSteps      uint64            `json:"ref_steps"`
	Mismatches    map[string]int    `json:"mismatches,omitempty"`
	Partitions    []PartitionRecord `json:"partitions,omitempty"`
}

// SuiteRecord is the trailing summary object of a JSONL suite report.
type SuiteRecord struct {
	SchemaVersion int     `json:"schema_version,omitempty"`
	Suite         string  `json:"suite"`
	Cases         int     `json:"cases"`
	Passed        int     `json:"passed"`
	Failed        int     `json:"failed"`
	Skipped       int     `json:"skipped"`
	Workers       int     `json:"workers"`
	WallNS        int64   `json:"wall_ns"`
	MaxCaseNS     int64   `json:"max_case_wall_ns"`
	TotalEvents   uint64  `json:"total_events"`
	SimWallNS     int64   `json:"sim_wall_ns"`
	EventsPerSec  float64 `json:"events_per_sec"`
	Speedup       float64 `json:"speedup"`
	OK            bool    `json:"ok"`
}

// BenchResult is the machine-readable outcome of one benchmark
// scenario, serialised as BENCH_<name>.json and streamed by
// `bench -json`. The checked-in baselines under bench/baseline/ predate
// schema_version and decode with SchemaVersion 0; every other field is
// unchanged from the original format (see TestBaselineRoundTrip).
type BenchResult struct {
	SchemaVersion  int     `json:"schema_version,omitempty"`
	Name           string  `json:"name"`
	Desc           string  `json:"desc,omitempty"`
	Pinned         bool    `json:"pinned"`
	Backend        string  `json:"backend,omitempty"`
	Reps           int     `json:"reps"`
	Events         uint64  `json:"events"`
	Cycles         uint64  `json:"cycles,omitempty"`
	Configs        uint64  `json:"configs,omitempty"`
	WallNS         int64   `json:"wall_ns"`
	EventsPerSec   float64 `json:"events_per_sec"`
	ConfigsPerSec  float64 `json:"configs_per_sec,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	AllocsPerCfg   float64 `json:"allocs_per_config,omitempty"`
	UnixTime       int64   `json:"unix_time"`
	GoVersion      string  `json:"go_version"`
	GOOS           string  `json:"goos"`
	GOARCH         string  `json:"goarch"`
	CPUs           int     `json:"cpus"`
}

// The request kinds the simd server executes.
const (
	// KindVerify runs the requested rounds on the pooled prepared
	// design — the first one pays compile and elaborate on a pool miss,
	// every later one is a reset-and-replay — and verifies each against
	// the golden models.
	KindVerify = "verify"
	// KindBench is a timed sweep: N rounds with no verification, for
	// throughput measurement on a pooled session.
	KindBench = "bench"
)

// Request is the one serializable request shape of the simd server: a
// workload selector plus execution knobs. The same JSON object works
// against /v1/verify and /v1/bench (the endpoint fixes Kind; a
// non-empty body Kind must agree with the endpoint).
//
// Workload accepts either a bare family name ("hamming") with Params
// supplying parameters, or the CLI's inline spec syntax
// ("hamming,words=64"); inline values are overridden by Params.
type Request struct {
	SchemaVersion int            `json:"schema_version,omitempty"`
	Kind          string         `json:"kind,omitempty"`
	Workload      string         `json:"workload"`
	Params        map[string]int `json:"params,omitempty"`
	Backend       string         `json:"backend,omitempty"` // "" = server default
	Rounds        int            `json:"rounds,omitempty"`  // <=0 = 1
}

// NewRequest builds a request for a workload with the current schema
// version stamped.
func NewRequest(workload string, params map[string]int) Request {
	return Request{SchemaVersion: SchemaVersion, Workload: workload, Params: params}
}

// WithBackend returns a copy of the request targeting a backend.
func (r Request) WithBackend(backend string) Request {
	r.Backend = backend
	return r
}

// WithRounds returns a copy of the request running n rounds.
func (r Request) WithRounds(n int) Request {
	r.Rounds = n
	return r
}

// Validate checks the request's schema version and shape.
func (r Request) Validate() error {
	if err := CheckVersion(r.SchemaVersion); err != nil {
		return err
	}
	if r.Workload == "" {
		return fmt.Errorf("api: request missing workload")
	}
	if r.Rounds < 0 {
		return fmt.Errorf("api: negative rounds %d", r.Rounds)
	}
	switch r.Kind {
	case "", KindVerify, KindBench:
		return nil
	}
	return fmt.Errorf("api: unknown request kind %q", r.Kind)
}

// DecodeRequest decodes and validates one request object from r.
func DecodeRequest(r io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(r)
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("api: bad request body: %w", err)
	}
	if err := req.Validate(); err != nil {
		return req, err
	}
	return req, nil
}

// The record discriminators of a simd NDJSON response stream.
const (
	// RecordConfig is one executed configuration of one round.
	RecordConfig = "config"
	// RecordSummary is the trailing aggregate record of a response.
	RecordSummary = "summary"
)

// RunRecord is one line of a simd NDJSON response. Record discriminates
// the two shapes: "config" lines stream each executed configuration as
// its round completes (Round, Config, Cycles, Events, WallNS, Kernel,
// Completed), and the single trailing "summary" line aggregates the
// whole request (rounds, totals, throughput, verification verdict, and
// the session's pool/replay statistics). A summary with a non-empty
// Error reports a request that failed after streaming began.
type RunRecord struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	Record        string `json:"record"`

	// Config-record fields.
	Round     int    `json:"round,omitempty"` // 1-based
	Config    string `json:"config,omitempty"`
	Cycles    uint64 `json:"cycles,omitempty"`
	Kernel    string `json:"kernel,omitempty"`
	Completed bool   `json:"completed,omitempty"`

	// Summary-record fields.
	Kind          string         `json:"kind,omitempty"`
	Workload      string         `json:"workload,omitempty"`
	Params        string         `json:"params,omitempty"` // canonical "k=v,k=v"
	Backend       string         `json:"backend,omitempty"`
	Rounds        int            `json:"rounds,omitempty"`
	Configs       uint64         `json:"configs,omitempty"`
	EventsPerSec  float64        `json:"events_per_sec,omitempty"`
	ConfigsPerSec float64        `json:"configs_per_sec,omitempty"`
	Verified      bool           `json:"verified,omitempty"` // a verdict was computed (verify)
	Passed        bool           `json:"passed,omitempty"`
	Mismatches    map[string]int `json:"mismatches,omitempty"`
	PoolHit       bool           `json:"pool_hit,omitempty"` // request reused a pooled session
	Elaborations  uint64         `json:"elaborations,omitempty"`
	Resets        uint64         `json:"resets,omitempty"`
	Error         string         `json:"error,omitempty"`

	// Shared by both shapes.
	Events uint64 `json:"events,omitempty"`
	WallNS int64  `json:"wall_ns,omitempty"`
}

// BackendInfo describes one simulator backend: the flow descriptor
// served by GET /v1/backends and embedded in /statsz. Added
// without a schema bump — the fields are additive and every earlier
// field keeps its meaning.
type BackendInfo struct {
	Name         string `json:"name"`
	Kind         string `json:"kind"` // "event" or "cycle"
	Desc         string `json:"desc,omitempty"`
	SupportsGang bool   `json:"supports_gang,omitempty"`
}

// BackendsResponse is the GET /v1/backends payload: the server's
// default backend plus every backend descriptor, default first.
type BackendsResponse struct {
	SchemaVersion int           `json:"schema_version,omitempty"`
	Default       string        `json:"default"`
	Backends      []BackendInfo `json:"backends"`
}

// SessionStats is one pooled session's aggregate view in /statsz.
type SessionStats struct {
	Key          string `json:"key"` // "workload(params)@backend"
	Runs         uint64 `json:"runs"`
	InFlight     int    `json:"in_flight"`
	Elaborations uint64 `json:"elaborations"`
	Resets       uint64 `json:"resets"`
}

// ServerStats is the /statsz response: admission, pool and throughput
// counters aggregated since server start.
type ServerStats struct {
	SchemaVersion int   `json:"schema_version,omitempty"`
	UptimeNS      int64 `json:"uptime_ns"`

	// Admission and request lifecycle.
	Requests int64 `json:"requests"` // admitted requests
	Rejected int64 `json:"rejected"` // shed with 429 (token bucket, queue, session caps)
	Failed   int64 `json:"failed"`   // admitted requests that errored
	InFlight int64 `json:"in_flight"`

	// Session pool.
	Sessions    int   `json:"sessions"`
	MaxSessions int   `json:"max_sessions"`
	PoolHits    int64 `json:"pool_hits"`
	PoolMisses  int64 `json:"pool_misses"`
	Evictions   int64 `json:"evictions"`

	// Replay economics across every pooled session: elaborations stay
	// flat while resets grow when the replay cache is doing its job.
	Elaborations uint64 `json:"elaborations"`
	Resets       uint64 `json:"resets"`

	// Throughput since start.
	Events          uint64  `json:"events"`
	Configs         uint64  `json:"configs"`
	Rounds          uint64  `json:"rounds"`
	EventsPerSec    float64 `json:"events_per_sec"`
	ConfigsPerSec   float64 `json:"configs_per_sec"`
	AllocsPerConfig float64 `json:"allocs_per_config"`

	SessionsDetail []SessionStats `json:"sessions_detail,omitempty"`

	// Backends lists the backend descriptors (additive,
	// schema unchanged); Backend is the server's default.
	Backend  string        `json:"backend,omitempty"`
	Backends []BackendInfo `json:"backends,omitempty"`

	// Sharded-sweep serving counters (additive; schema unchanged): the
	// shard jobs this server executed for sweep coordinators and the
	// cases they covered. A coordinator's own counters live in its
	// SweepStats sidecar / SweepProgress — these are the worker-side
	// mirror, so a fleet's /statsz pages tell the same story.
	SweepShards     int64 `json:"sweep_shards,omitempty"`
	SweepShardCases int64 `json:"sweep_shard_cases,omitempty"`
}
