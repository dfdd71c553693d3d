package flow

import (
	"context"
	"errors"
	"sync"

	"repro/internal/hades"
)

// PoolKey identifies one poolable prepared session: a resolved workload
// instance on one simulator backend. Params must be the canonical
// resolved parameter string (workloads.Values.String() — sorted
// "k=v,k=v" with every default filled in), so two requests that spell
// the same instance differently share one session.
type PoolKey struct {
	Workload string
	Params   string
	Backend  string
}

// String renders the key as "workload(params)@backend", the form the
// server's /statsz endpoint and logs use.
func (k PoolKey) String() string {
	s := k.Workload
	if k.Params != "" {
		s += "(" + k.Params + ")"
	}
	if k.Backend != "" {
		s += "@" + k.Backend
	}
	return s
}

// ErrSessionBusy is returned by TryRun and TrySimulate when the session
// already has its maximum number of rounds in flight. Callers that
// would rather wait use RunContext, which queues on the slot.
var ErrSessionBusy = errors.New("flow: session at its in-flight limit")

// SessionStats is a point-in-time snapshot of one session's lifetime
// counters. Elaborations and Resets come from the underlying kernel
// simulators: a healthy pooled session elaborates once per
// configuration and then grows only Resets, which is exactly how a
// caller (or a test) proves the replay cache carried the rounds.
type SessionStats struct {
	Key          string
	Runs         int
	InFlight     int
	Elaborations uint64
	Resets       uint64
}

// Session wraps a PreparedDesign for shared, admission-controlled use:
// a bounded number of callers may have rounds in flight at once (the
// rounds themselves serialize on the design — the replay cache holds
// live simulators — so the bound caps queueing, not parallelism), and
// the session aggregates per-configuration kernel counters across
// rounds so a server can report cache effectiveness without replaying
// observer streams.
type Session struct {
	key   PoolKey
	d     *PreparedDesign
	slots chan struct{}

	mu     sync.Mutex
	runs   int
	kstats map[string]hades.Stats // last round's lifetime counters per configuration
}

// NewSession wraps a prepared design. maxInFlight bounds concurrent
// rounds (waiting included); values below 1 are treated as 1.
func NewSession(key PoolKey, d *PreparedDesign, maxInFlight int) *Session {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	return &Session{
		key:    key,
		d:      d,
		slots:  make(chan struct{}, maxInFlight),
		kstats: map[string]hades.Stats{},
	}
}

// Key returns the pool key the session was created under.
func (s *Session) Key() PoolKey { return s.key }

// InFlight reports how many rounds currently hold a slot.
func (s *Session) InFlight() int { return len(s.slots) }

// Runs reports how many rounds the session has completed.
func (s *Session) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// Stats snapshots the session's lifetime counters. Elaborations and
// Resets sum the latest per-configuration kernel counters, so they
// reflect the whole session, not the last round.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStats{Key: s.key.String(), Runs: s.runs, InFlight: len(s.slots)}
	for _, ks := range s.kstats {
		st.Elaborations += ks.Elaborations
		st.Resets += ks.Resets
	}
	return st
}

// RunContext performs one full verification round (reseed, simulate,
// verify), waiting for a slot if the session is at its in-flight limit.
// A nil ctx waits indefinitely; otherwise ctx bounds both the wait and
// the round itself.
func (s *Session) RunContext(ctx context.Context) (*Outcome, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	return s.round(ctx, true)
}

// TryRunContext is RunContext without queueing: when every slot is
// taken it fails fast with ErrSessionBusy, the signal a server turns
// into backpressure (HTTP 429) instead of unbounded buffering.
func (s *Session) TryRunContext(ctx context.Context) (*Outcome, error) {
	if !s.tryAcquire() {
		return nil, ErrSessionBusy
	}
	defer s.release()
	return s.round(ctx, true)
}

// SimulateContext is RunContext without the verify stage — the bench
// shape, where golden-model time would pollute the measurement. The
// Outcome's Verdict is always nil.
func (s *Session) SimulateContext(ctx context.Context) (*Outcome, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	return s.round(ctx, false)
}

// TrySimulateContext is SimulateContext with ErrSessionBusy instead of
// queueing.
func (s *Session) TrySimulateContext(ctx context.Context) (*Outcome, error) {
	if !s.tryAcquire() {
		return nil, ErrSessionBusy
	}
	defer s.release()
	return s.round(ctx, false)
}

func (s *Session) round(ctx context.Context, verify bool) (*Outcome, error) {
	var out *Outcome
	var err error
	if verify {
		out, err = s.d.RunContext(ctx)
	} else {
		var sim *SimResult
		sim, err = s.d.SimulateContext(ctx)
		if err == nil {
			out = &Outcome{Compiled: s.d.compiled, Sim: sim}
		}
	}
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.runs++
	if out.Sim != nil {
		// hades counters are lifetime values, so keeping the newest per
		// configuration (not adding) makes the sums session totals. Rounds
		// serialize on the design but record here in whatever order their
		// goroutines resume, so "newest" is the monotone counter sum, not
		// arrival order.
		for _, run := range out.Sim.Runs {
			old, seen := s.kstats[run.ID]
			if !seen || run.Stats.Elaborations+run.Stats.Resets > old.Elaborations+old.Resets {
				s.kstats[run.ID] = run.Stats
			}
		}
	}
	s.mu.Unlock()
	return out, nil
}

func (s *Session) tryAcquire() bool {
	select {
	case s.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Session) acquire(ctx context.Context) error {
	if ctx == nil {
		s.slots <- struct{}{}
		return nil
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Session) release() { <-s.slots }
