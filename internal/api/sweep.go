package api

import (
	"encoding/json"
	"fmt"
	"io"
)

// This file defines the sharded-sweep wire shapes: the campaign spec
// the sweep coordinator partitions across worker processes, the shard
// job request POSTed to a simd server's /v1/sweep/sharded endpoint, and
// the JSONL records a shard file is made of.
//
// A shard file is the coordinator's unit of recovery: a ShardHeader
// line tying the file to one campaign layout (spec digest, shard index,
// case range, backend), one TraceCase line per executed case, and a
// trailing ShardResult footer whose digest covers the case lines. A
// file ending in a valid footer is complete and is never re-executed on
// resume; a torn or missing footer classifies the shard as resumable
// work. Like the scenario trace records, shard records carry no
// wall-clock or host-dependent fields — that is what makes the merged
// campaign file byte-identical regardless of worker count, interleaving
// or resume passes. Timing and attempt accounting live in the ShardStats
// and SweepStats sidecar records instead, which are written to a
// separate stats file and never merged.

// GridSpec is the preset-grid campaign mode: the cross product of a
// workload list and an inclusive-exclusive seed range [SeedFrom,
// SeedTo). Case i resolves workload i/span with the seed parameter set
// to SeedFrom + i%span (workload-major order), so every case is a pure
// function of the spec.
type GridSpec struct {
	// Workloads are inline workload specs ("family" or
	// "family,k=v,..."), each resolved against the registry.
	Workloads []string `json:"workloads"`
	// SeedFrom/SeedTo bound the seed range; SeedTo is exclusive.
	SeedFrom int `json:"seed_from"`
	SeedTo   int `json:"seed_to"`
	// SeedParam names the parameter the seed is assigned to (default
	// "seed", which every built-in family exposes).
	SeedParam string `json:"seed_param,omitempty"`
}

// Span is the number of seeds per workload.
func (g *GridSpec) Span() int { return g.SeedTo - g.SeedFrom }

// Cases is the grid's total case count.
func (g *GridSpec) Cases() int { return len(g.Workloads) * g.Span() }

// SweepSpec is the declarative description of a sharded campaign:
// exactly one of Scenario (shard the expanded case list of a scenario
// spec) or Grid (shard a workload-preset x seed-range grid) is set.
// Shards is the campaign's shard layout — it participates in the spec
// digest, so shard files from one layout are never merged into another.
type SweepSpec struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	Name          string `json:"name"`
	// Shards is the number of contiguous case-range shards; <=0 lets
	// the loader pick a default (clamped to the case count either way).
	Shards int `json:"shards,omitempty"`
	// Backend overrides the simulator backend for the whole campaign
	// ("" defers to the scenario spec's backend, then the flow default).
	Backend  string        `json:"backend,omitempty"`
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	Grid     *GridSpec     `json:"grid,omitempty"`
}

// Validate checks the spec's schema version and structural shape;
// registry-dependent validation (families exist, parameters in range)
// happens at sweep.Load.
func (s *SweepSpec) Validate() error {
	if err := CheckVersion(s.SchemaVersion); err != nil {
		return err
	}
	if s.Name == "" {
		return fmt.Errorf("api: sweep spec needs a name")
	}
	if (s.Scenario == nil) == (s.Grid == nil) {
		return fmt.Errorf("api: sweep spec %q needs exactly one of scenario, grid", s.Name)
	}
	if g := s.Grid; g != nil {
		if len(g.Workloads) == 0 {
			return fmt.Errorf("api: sweep spec %q: grid needs at least one workload", s.Name)
		}
		if g.SeedFrom < 0 || g.SeedTo <= g.SeedFrom {
			return fmt.Errorf("api: sweep spec %q: grid seed range [%d, %d) is empty or negative",
				s.Name, g.SeedFrom, g.SeedTo)
		}
	}
	return nil
}

// DecodeSweepSpec decodes one sweep spec object from r and validates
// its shape.
func DecodeSweepSpec(r io.Reader) (*SweepSpec, error) {
	var spec SweepSpec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("api: bad sweep spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// SweepRequest is the POST /v1/sweep/sharded body: execute exactly one
// shard of the campaign and stream its shard records back as NDJSON.
// The server loads the spec against its own registry, so the shard
// header it emits carries the same campaign digest the coordinator
// computed — a mismatched registry or layout surfaces as a foreign
// shard, not a silently wrong merge.
type SweepRequest struct {
	SchemaVersion int       `json:"schema_version,omitempty"`
	Spec          SweepSpec `json:"spec"`
	// Shard is the 0-based shard index to execute (against the spec's
	// Shards layout).
	Shard int `json:"shard"`
}

// Validate checks the request envelope and the embedded spec.
func (r *SweepRequest) Validate() error {
	if err := CheckVersion(r.SchemaVersion); err != nil {
		return err
	}
	if r.Shard < 0 {
		return fmt.Errorf("api: negative shard index %d", r.Shard)
	}
	return r.Spec.Validate()
}

// DecodeSweepRequest decodes and validates one shard job request.
func DecodeSweepRequest(r io.Reader) (*SweepRequest, error) {
	var req SweepRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return nil, fmt.Errorf("api: bad sweep request: %w", err)
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// The record discriminators of a shard file and the stats sidecar.
const (
	// RecordShardHeader is the leading line of a shard file.
	RecordShardHeader = "shard"
	// RecordShardResult is the trailing footer line of a complete shard.
	RecordShardResult = "shard_result"
	// RecordShardStats is one shard's sidecar timing/attempt record.
	RecordShardStats = "shard_stats"
	// RecordSweepStats is the sidecar's trailing campaign aggregate.
	RecordSweepStats = "sweep_stats"
	// RecordSweepProgress is a live coordinator snapshot (the /progressz
	// payload); never written to a shard or campaign file.
	RecordSweepProgress = "sweep_progress"
)

// ShardHeader is the first line of a shard file: which campaign layout
// the shard belongs to and which case range it covers. Every field is
// deterministic — two workers producing the same shard write the same
// header.
type ShardHeader struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	Record        string `json:"record"` // RecordShardHeader
	Campaign      string `json:"campaign"`
	// CampaignDigest fingerprints the normalized campaign spec
	// (including the shard layout); a shard from another campaign, another
	// layout or another backend never passes resume validation.
	CampaignDigest string `json:"campaign_digest"`
	Shard          int    `json:"shard"`  // 0-based
	Shards         int    `json:"shards"` // total
	From           int    `json:"from"`   // first case index (inclusive)
	To             int    `json:"to"`     // last case index (exclusive)
	Backend        string `json:"backend"`
}

// ShardResult is the footer line of a complete shard file: the case
// count and a digest over the raw case-line bytes. A file whose footer
// is missing, whose digest does not match, or whose case count is wrong
// is torn — resumable, not fatal. Deliberately free of wall-clock and
// host fields (see ShardStats).
type ShardResult struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	Record        string `json:"record"` // RecordShardResult
	Shard         int    `json:"shard"`
	Cases         int    `json:"cases"`
	// Digest is FNV-1a over every case line (each including its
	// trailing newline), in file order.
	Digest string `json:"digest"`
}

// ShardStats is the per-shard sidecar record: everything the
// deterministic shard records must not carry — wall clock, attempt
// counts, worker identity. Written to the coordinator's stats file,
// never into a shard or campaign file.
type ShardStats struct {
	SchemaVersion int    `json:"schema_version,omitempty"`
	Record        string `json:"record"` // RecordShardStats
	Shard         int    `json:"shard"`
	From          int    `json:"from"`
	To            int    `json:"to"`
	// Skipped marks a shard resumed from a previous pass (its file
	// already ended in a valid footer, so it was not re-executed).
	Skipped  bool   `json:"skipped,omitempty"`
	Attempts int    `json:"attempts"`
	Worker   string `json:"worker,omitempty"` // local, process, remote...
	State    string `json:"state"`            // valid, torn, foreign, missing, failed
	Error    string `json:"error,omitempty"`
	WallNS   int64  `json:"wall_ns"`
	// Endpoint names the fleet endpoint that produced the winning shard
	// file (empty before completion and on skipped shards).
	Endpoint string `json:"endpoint,omitempty"`
	// Hedges counts speculative re-dispatches of this shard; HedgeWon
	// marks a hedge attempt (not the primary) producing the winning file.
	Hedges   int  `json:"hedges,omitempty"`
	HedgeWon bool `json:"hedge_won,omitempty"`
	// Stolen marks a shard executed by an endpoint other than its
	// round-robin home placement.
	Stolen bool `json:"stolen,omitempty"`
	// Requeues counts endpoint-attributed failures that re-queued the
	// shard without charging its retry budget (route-around, not retry).
	Requeues int `json:"requeues,omitempty"`
}

// SweepStats is the sidecar's trailing aggregate for one coordinator
// pass.
type SweepStats struct {
	SchemaVersion  int    `json:"schema_version,omitempty"`
	Record         string `json:"record"` // RecordSweepStats
	Campaign       string `json:"campaign"`
	CampaignDigest string `json:"campaign_digest"`
	Cases          int    `json:"cases"`
	Shards         int    `json:"shards"`
	Workers        int    `json:"workers"`
	Executed       int    `json:"executed"` // shards run this pass
	Skipped        int    `json:"skipped"`  // shards resumed as complete
	Failed         int    `json:"failed"`   // shards that exhausted retries
	Retried        int    `json:"retried"`  // extra attempts beyond the first
	// CasesExecuted counts the cases of the shards that became valid
	// this pass, whatever worker ran them (resumed and failed shards
	// are not counted) — the resume economics counter: a resumed pass
	// after a crash executes only the lost shards' cases.
	CasesExecuted int64  `json:"cases_executed"`
	WallNS        int64  `json:"wall_ns"`
	UnixTime      int64  `json:"unix_time"`
	GoVersion     string `json:"go_version,omitempty"`
	// Resilient-dispatch accounting (additive; schema unchanged).
	Hedges    int `json:"hedges,omitempty"`     // speculative re-dispatches launched
	HedgesWon int `json:"hedges_won,omitempty"` // hedges whose file won the shard
	Steals    int `json:"steals,omitempty"`     // shards completed off their home endpoint
	Requeues  int `json:"requeues,omitempty"`   // endpoint-attributed free re-queues
	Fallbacks int `json:"fallbacks,omitempty"`  // shards run on the local fallback worker
	// WorkerHealth snapshots every fleet endpoint's health model at the
	// end of the pass.
	WorkerHealth []WorkerHealth `json:"worker_health,omitempty"`
}

// WorkerHealth is one endpoint's health-model snapshot: circuit-breaker
// state, consecutive failures, and the endpoint's own latency EWMA
// (the hedging deadline derives from the fleet-wide EWMA, not this
// one). Carried in the stats sidecar, SweepProgress and /progressz —
// never in a shard or campaign file.
type WorkerHealth struct {
	Name string `json:"name"`
	// State is the circuit-breaker state: "healthy" (closed) or "open"
	// (quarantined, routed around).
	State string `json:"state"`
	// ConsecutiveFailures is the breaker's trip counter; it resets on
	// every success.
	ConsecutiveFailures int   `json:"consecutive_failures,omitempty"`
	Failures            int64 `json:"failures,omitempty"`
	Successes           int64 `json:"successes,omitempty"`
	// LatencyEWMANS is the endpoint's exponentially weighted moving
	// average of per-shard wall time, in nanoseconds.
	LatencyEWMANS int64 `json:"latency_ewma_ns,omitempty"`
}

// SweepProgress is a live coordinator snapshot: the /progressz payload
// and the shape `testsuite sweep status -follow` renders. Shards move
// pending -> running -> done/failed; retried/hedged/stolen count
// dispatch events, not shards, so they can exceed the shard count.
type SweepProgress struct {
	SchemaVersion  int    `json:"schema_version,omitempty"`
	Record         string `json:"record"` // RecordSweepProgress
	Campaign       string `json:"campaign"`
	CampaignDigest string `json:"campaign_digest"`
	Shards         int    `json:"shards"`
	Done           int    `json:"done"` // valid (includes resumed-as-valid)
	Running        int    `json:"running"`
	Pending        int    `json:"pending"`
	Failed         int    `json:"failed"`
	Retried        int    `json:"retried"`
	Hedges         int    `json:"hedges,omitempty"`
	Steals         int    `json:"steals,omitempty"`
	Requeues       int    `json:"requeues,omitempty"`
	Fallbacks      int    `json:"fallbacks,omitempty"`
	CasesTotal     int    `json:"cases_total"`
	CasesDone      int    `json:"cases_done"`
	ElapsedNS      int64  `json:"elapsed_ns"`
	// EtaNS estimates the remaining wall time from the fleet's per-shard
	// latency EWMA and the live slot count; 0 means no estimate yet.
	EtaNS   int64          `json:"eta_ns,omitempty"`
	Workers []WorkerHealth `json:"workers,omitempty"`
}
