// Package simd serves the verification flow over HTTP: a
// simulation-as-a-service daemon that owns a pool of prepared designs
// (flow.Session) keyed by resolved (workload, params, backend) and
// admits concurrent verify and bench requests onto them under explicit
// backpressure.
//
// The request economics are the paper's amortization argument turned
// into a service: the first request for a workload instance pays
// compile + elaborate once, and every later request — from any client —
// reset-and-replays the pooled session's cached configuration graphs.
// The /statsz endpoint exposes the proof (pool hits, elaborations flat,
// resets climbing), and every response's trailing summary record
// carries the same counters per session.
//
// Admission control is three nested gates, each shedding with HTTP 429
// and a Retry-After header instead of queueing without bound:
//
//  1. a token bucket (Config.Rate/Burst) smoothing the request rate,
//  2. a bounded admission queue (Workers executing + MaxQueue waiting),
//  3. a per-session in-flight cap (Config.SessionInFlight), since
//     rounds on one prepared design serialize on its replay cache.
//
// Responses stream NDJSON: one api.RunRecord per executed configuration
// per round as it completes, then a single trailing summary record.
// All wire shapes live in internal/api — the same versioned schema the
// testsuite JSONL and bench JSON use.
package simd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/workloads"
)

// Config tunes a Server. The zero value is usable: every field has a
// serving default.
type Config struct {
	// Workers bounds concurrently executing requests (default: one per
	// CPU). Rounds on distinct sessions run in parallel up to this.
	Workers int
	// MaxQueue bounds requests admitted but waiting for a worker
	// (default: Workers). Beyond Workers+MaxQueue, requests shed with
	// 429 instead of queueing.
	MaxQueue int
	// MaxSessions caps the prepared-session pool; the least recently
	// used session is evicted past it (default 8).
	MaxSessions int
	// SessionInFlight caps concurrent requests per pooled session
	// (default: Workers). The session's rounds serialize on its replay
	// cache, so this bounds per-key queueing, not parallelism.
	SessionInFlight int
	// Rate is the token-bucket admission rate in requests/sec; 0 means
	// unlimited. Burst is the bucket depth (default: ceil(Rate), min 1).
	Rate  float64
	Burst int
	// Backend is the default simulator backend for requests that leave
	// it empty ("" = flow.DefaultBackend).
	Backend string
	// MaxRounds caps rounds per request (default 4096).
	MaxRounds int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = c.Workers
	}
	if c.MaxSessions < 1 {
		c.MaxSessions = 8
	}
	if c.SessionInFlight < 1 {
		c.SessionInFlight = c.Workers
	}
	if c.Burst < 1 {
		c.Burst = int(math.Ceil(c.Rate))
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	if c.MaxRounds < 1 {
		c.MaxRounds = 4096
	}
	if c.Backend == "" {
		c.Backend = flow.DefaultBackend
	}
	return c
}

// Server is the simulation service. Create with New, mount via
// ServeHTTP (it implements http.Handler); graceful drain is the HTTP
// server's job (http.Server.Shutdown finishes in-flight streams —
// cmd/simd wires SIGTERM to it).
type Server struct {
	cfg     Config
	pool    *sessionPool
	tickets chan struct{} // admission: Workers+MaxQueue
	workers chan struct{} // execution: Workers
	bucket  *bucket
	ctr     *bench.Counters
	start   time.Time
	mux     *http.ServeMux

	requests atomic.Int64 // admitted
	rejected atomic.Int64 // shed with 429
	failed   atomic.Int64 // admitted but errored
	inFlight atomic.Int64

	sweepShards     atomic.Int64 // sharded-sweep jobs served to completion
	sweepShardCases atomic.Int64 // cases covered by those jobs
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    newSessionPool(cfg.MaxSessions),
		tickets: make(chan struct{}, cfg.Workers+cfg.MaxQueue),
		workers: make(chan struct{}, cfg.Workers),
		bucket:  newBucket(cfg.Rate, cfg.Burst),
		ctr:     bench.NewCounters(),
		start:   time.Now(),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc(PathVerify, s.handleRun(api.KindVerify))
	s.mux.HandleFunc(PathBench, s.handleRun(api.KindBench))
	s.mux.HandleFunc(PathShardedSweep, s.handleShardedSweep)
	s.mux.HandleFunc(PathBackends, s.handleBackends)
	s.mux.HandleFunc(PathStats, s.handleStats)
	s.mux.HandleFunc(PathHealth, s.handleHealth)
	return s
}

// The server's routes. Each run endpoint accepts a POSTed api.Request
// and fixes its Kind (a multi-round verify is /v1/verify with Rounds
// set); /v1/sweep/sharded accepts a POSTed api.SweepRequest and streams
// one shard's records (a whole scenario is a one-shard sweep);
// /v1/backends returns an api.BackendsResponse; /statsz returns an
// api.ServerStats object.
const (
	PathVerify       = "/v1/verify"
	PathBench        = "/v1/bench"
	PathShardedSweep = "/v1/sweep/sharded"
	PathBackends     = "/v1/backends"
	PathStats        = "/statsz"
	PathHealth       = "/healthz"
)

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func (s *Server) handleRun(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST an api.Request", http.StatusMethodNotAllowed)
			return
		}
		if retry, ok := s.bucket.take(); !ok {
			s.reject(w, retry, "rate limit exceeded")
			return
		}
		req, err := api.DecodeRequest(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Kind != "" && req.Kind != kind {
			http.Error(w, fmt.Sprintf("simd: request kind %q does not match endpoint %q", req.Kind, kind), http.StatusBadRequest)
			return
		}
		req.Kind = kind
		if req.Rounds <= 0 {
			req.Rounds = 1
		}
		if req.Rounds > s.cfg.MaxRounds {
			http.Error(w, fmt.Sprintf("simd: %d rounds exceeds the per-request cap %d", req.Rounds, s.cfg.MaxRounds), http.StatusBadRequest)
			return
		}
		select {
		case s.tickets <- struct{}{}:
		default:
			s.reject(w, time.Second, "server at capacity")
			return
		}
		defer func() { <-s.tickets }()
		s.requests.Add(1)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		s.serve(w, r, req)
	}
}

func (s *Server) reject(w http.ResponseWriter, retry time.Duration, msg string) {
	s.rejected.Add(1)
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	http.Error(w, "simd: "+msg, http.StatusTooManyRequests)
}

// serve executes one admitted request: resolve the session (pool hit or
// single-flight prepare), take a worker slot, run the rounds, stream
// NDJSON. The first round runs before any byte is written so admission
// failures (session busy) and execution errors still get proper status
// codes; from the second round on, errors land in the trailing summary
// record's error field.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, req api.Request) {
	ctx := r.Context()
	sess, poolHit, status, err := s.session(ctx, req)
	if err != nil {
		s.failed.Add(1)
		http.Error(w, err.Error(), status)
		return
	}
	select {
	case s.workers <- struct{}{}:
	case <-ctx.Done():
		s.failed.Add(1)
		return // client gone while queued
	}
	defer func() { <-s.workers }()

	verify := req.Kind != api.KindBench
	round := func(first bool) (*flow.Outcome, error) {
		switch {
		case first && verify:
			return sess.TryRunContext(ctx)
		case first:
			return sess.TrySimulateContext(ctx)
		case verify:
			return sess.RunContext(ctx)
		default:
			return sess.SimulateContext(ctx)
		}
	}

	sum := api.RunRecord{
		SchemaVersion: api.SchemaVersion,
		Record:        api.RecordSummary,
		Kind:          req.Kind,
		Workload:      sess.Key().Workload,
		Params:        sess.Key().Params,
		Backend:       sess.Key().Backend,
		PoolHit:       poolHit,
		Passed:        true,
	}
	start := time.Now()
	var simWall time.Duration
	var enc *json.Encoder
	flusher, _ := w.(http.Flusher)

	for n := 1; n <= req.Rounds; n++ {
		out, err := round(n == 1)
		if err != nil {
			s.failed.Add(1)
			if enc == nil { // nothing written yet: full-status reply
				if errors.Is(err, flow.ErrSessionBusy) {
					s.failed.Add(-1) // shed, not failed
					s.reject(w, time.Second, "session at its in-flight limit")
					return
				}
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			sum.Error = err.Error()
			break
		}
		if enc == nil {
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc = json.NewEncoder(w)
		}
		for _, run := range out.Sim.Runs {
			enc.Encode(api.RunRecord{
				SchemaVersion: api.SchemaVersion,
				Record:        api.RecordConfig,
				Round:         n,
				Config:        run.ID,
				Cycles:        run.Cycles,
				Kernel:        run.Kernel,
				Completed:     run.Completed,
				Events:        run.Events,
				WallNS:        run.Wall.Nanoseconds(),
			})
		}
		if flusher != nil {
			flusher.Flush()
		}
		sum.Rounds++
		sum.Configs += uint64(len(out.Sim.Runs))
		sum.Events += out.Sim.Events
		simWall += out.Sim.SimWall
		s.ctr.ObserveRound(out.Sim.Events, uint64(len(out.Sim.Runs)))
		if out.Verdict != nil {
			sum.Verified = true
			if !out.Verdict.Passed {
				sum.Passed = false
				if sum.Mismatches == nil {
					sum.Mismatches = map[string]int{}
				}
				for name, ms := range out.Verdict.Mismatches {
					if len(ms) > 0 {
						sum.Mismatches[name] += len(ms)
					}
				}
			}
		}
	}
	sum.Passed = sum.Verified && sum.Passed
	sum.WallNS = time.Since(start).Nanoseconds()
	if secs := simWall.Seconds(); secs > 0 {
		sum.EventsPerSec = float64(sum.Events) / secs
		sum.ConfigsPerSec = float64(sum.Configs) / secs
	}
	st := sess.Stats()
	sum.Elaborations = st.Elaborations
	sum.Resets = st.Resets
	enc.Encode(sum)
}

// session resolves the request's workload selector into a pooled
// session, preparing one (single-flight) on a miss. The non-zero status
// classifies failures for the HTTP reply.
func (s *Server) session(ctx context.Context, req api.Request) (sess *flow.Session, poolHit bool, status int, err error) {
	name, vals, err := workloads.ParseSpec(req.Workload)
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	for k, v := range req.Params { // explicit params override inline ones
		vals[k] = v
	}
	wl, err := workloads.Lookup(name)
	if err != nil {
		return nil, false, http.StatusNotFound, err
	}
	resolved, err := workloads.Resolve(wl, vals)
	if err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	backend := req.Backend
	if backend == "" {
		backend = s.cfg.Backend
	}
	if _, err := flow.LookupBackend(backend); err != nil {
		return nil, false, http.StatusBadRequest, err
	}
	key := flow.PoolKey{Workload: name, Params: resolved.String(), Backend: backend}
	e, owner := s.pool.get(key)
	if owner {
		sess, err := s.prepare(ctx, wl, resolved, key)
		s.pool.publish(e, sess, err)
	} else {
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, http.StatusServiceUnavailable, ctx.Err()
		}
	}
	if e.err != nil {
		return nil, false, http.StatusInternalServerError, e.err
	}
	return e.sess, !owner, 0, nil
}

// prepare pays the one-time cost of a pool miss: materialize the
// workload, compile and elaborate under the requesting context, and
// wrap the detached design in an admission-capped session.
func (s *Server) prepare(ctx context.Context, wl workloads.Workload, v workloads.Values, key flow.PoolKey) (*flow.Session, error) {
	c, err := workloads.BuildWorkload(wl, v)
	if err != nil {
		return nil, err
	}
	p, err := flow.New(flow.WithBackend(key.Backend))
	if err != nil {
		return nil, err
	}
	d, err := p.PrepareContext(ctx, flow.Source{
		Name: key.String(), Text: c.Source, Func: c.Func,
		ArraySizes: c.ArraySizes, ScalarArgs: c.ScalarArgs,
		Inputs: c.Inputs, Expected: c.Expected,
	})
	if err != nil {
		return nil, err
	}
	return flow.NewSession(key, d, s.cfg.SessionInFlight), nil
}

// Stats snapshots the server's counters — the /statsz payload.
func (s *Server) Stats() api.ServerStats {
	snap := s.ctr.Snapshot()
	hits, misses, evictions := s.pool.counters()
	st := api.ServerStats{
		SchemaVersion:   api.SchemaVersion,
		UptimeNS:        time.Since(s.start).Nanoseconds(),
		Requests:        s.requests.Load(),
		Rejected:        s.rejected.Load(),
		Failed:          s.failed.Load(),
		InFlight:        s.inFlight.Load(),
		Sessions:        s.pool.size(),
		MaxSessions:     s.cfg.MaxSessions,
		PoolHits:        hits,
		PoolMisses:      misses,
		Evictions:       evictions,
		Events:          snap.Events,
		Configs:         snap.Configs,
		Rounds:          snap.Rounds,
		EventsPerSec:    snap.EventsPerSec,
		ConfigsPerSec:   snap.ConfigsPerSec,
		AllocsPerConfig: snap.AllocsPerConfig,
	}
	st.Backend = s.cfg.Backend
	st.Backends = backendInfos()
	st.SweepShards = s.sweepShards.Load()
	st.SweepShardCases = s.sweepShardCases.Load()
	for _, sess := range s.pool.sessions() {
		ss := sess.Stats()
		st.Elaborations += ss.Elaborations
		st.Resets += ss.Resets
		st.SessionsDetail = append(st.SessionsDetail, api.SessionStats{
			Key:          ss.Key,
			Runs:         uint64(ss.Runs),
			InFlight:     ss.InFlight,
			Elaborations: ss.Elaborations,
			Resets:       ss.Resets,
		})
	}
	return st
}

// backendInfos renders the flow backends as wire descriptors, in
// Backends() order (default first).
func backendInfos() []api.BackendInfo {
	infos := flow.Backends()
	out := make([]api.BackendInfo, len(infos))
	for i, bi := range infos {
		out[i] = api.BackendInfo{
			Name:         bi.Name,
			Kind:         string(bi.Kind),
			Desc:         bi.Desc,
			SupportsGang: bi.SupportsGang,
		}
	}
	return out
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(api.BackendsResponse{
		SchemaVersion: api.SchemaVersion,
		Default:       s.cfg.Backend,
		Backends:      backendInfos(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// bucket is a refill-on-demand token bucket: rate tokens/sec up to
// burst. A zero rate admits everything.
type bucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(rate float64, burst int) *bucket {
	return &bucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take consumes one token. When empty it reports how long until the
// next token accrues — the Retry-After hint.
func (b *bucket) take() (retry time.Duration, ok bool) {
	if b.rate <= 0 {
		return 0, true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / b.rate * float64(time.Second)), false
}
