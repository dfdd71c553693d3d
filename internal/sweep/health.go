package sweep

import (
	"time"

	"repro/internal/api"
)

// Endpoint is one independently health-tracked worker in a dispatch
// fleet: typically one simd server, one subprocess lane, or the
// in-process LocalWorker. The dispatcher gives each endpoint its own
// circuit breaker and latency EWMA, so a dead or flaky endpoint stops
// receiving work (route-around) instead of burning shard retry
// budgets.
type Endpoint struct {
	// Worker executes the shards this endpoint is handed. Required.
	Worker Worker
	// Name tags the endpoint in health snapshots and the stats sidecar
	// (default Worker.Name()). Names need not be unique, but distinct
	// names make WorkerHealth legible.
	Name string
	// Slots is how many shards this endpoint runs concurrently
	// (default 1).
	Slots int
}

// Breaker states, as reported in api.WorkerHealth.State.
const (
	healthClosed = "healthy"
	healthOpen   = "open"
)

// The breaker policy: consecutive failures that open an endpoint's
// circuit, and the mean of the jittered cooldown it then parks for.
const (
	breakerFailures = 3
	breakerCooldown = 500 * time.Millisecond
)

// epHealth is the dispatcher-side health record for one endpoint: a
// two-state consecutive-failure circuit breaker plus a latency EWMA
// over successful attempts. All fields are guarded by the dispatcher's
// mutex.
type epHealth struct {
	Endpoint
	index int

	state       string
	consecFails int
	failures    int64
	successes   int64
	ewmaNS      float64
	openUntil   time.Time
	started     bool // made its first take; its home shards may be stolen
}

// charge records a failed attempt: consecutive failures reaching the
// threshold trip the breaker open for cooldown.
func (h *epHealth) charge(now time.Time, cooldown time.Duration) {
	h.failures++
	h.consecFails++
	if h.state == healthClosed && h.consecFails >= breakerFailures {
		h.state = healthOpen
		h.openUntil = now.Add(cooldown)
	}
}

// credit records a successful attempt and folds its wall time into the
// latency EWMA.
func (h *epHealth) credit(d time.Duration) {
	h.successes++
	h.consecFails = 0
	h.state = healthClosed
	const alpha = 0.3
	if h.ewmaNS == 0 {
		h.ewmaNS = float64(d.Nanoseconds())
	} else {
		h.ewmaNS = (1-alpha)*h.ewmaNS + alpha*float64(d.Nanoseconds())
	}
}

// tick closes an open breaker whose cooldown has elapsed, one failure
// short of the threshold: the endpoint takes work again, and its next
// failure re-opens it at once while a success clears the count.
func (h *epHealth) tick(now time.Time) {
	if h.state == healthOpen && !now.Before(h.openUntil) {
		h.state = healthClosed
		h.consecFails = breakerFailures - 1
	}
}

// snapshot renders the health record as its wire form.
func (h *epHealth) snapshot() api.WorkerHealth {
	return api.WorkerHealth{
		Name:                h.Name,
		State:               h.state,
		ConsecutiveFailures: h.consecFails,
		Failures:            h.failures,
		Successes:           h.successes,
		LatencyEWMANS:       int64(h.ewmaNS),
	}
}

// splitmix64 is a tiny deterministic PRNG for backoff jitter and
// cooldown spreading. Hand-rolled on purpose: the repro discipline
// audit reserves math/rand for internal/scenario, and jitter only
// shapes *when* work retries — never what it computes — so seed
// quality is irrelevant.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// float01 draws from [0,1).
func (r *splitmix64) float01() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// backoffCapFactor caps a retry's jittered backoff at this multiple of
// Options.Backoff.
const backoffCapFactor = 10

// jitterBackoff implements decorrelated jitter: each wait is drawn
// from [base, 3*prev), capped at backoffCapFactor*base — simultaneous
// failures spread out instead of resynchronizing their retries the way
// fixed multiplicative backoff does.
func jitterBackoff(r *splitmix64, base, prev time.Duration) time.Duration {
	if prev < base {
		prev = base
	}
	span := 3*prev - base
	d := base + time.Duration(r.float01()*float64(span))
	if limit := backoffCapFactor * base; d > limit {
		d = limit
	}
	return d
}
