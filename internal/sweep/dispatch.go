package sweep

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/api"
)

// The resilient dispatch layer. The coordinator plans shards; this
// file decides *who* runs each one — and only who. A shard's identity
// (its case range, its bytes, its digest) is fixed by the campaign
// layout, so stealing, hedging and fallback can move work between
// endpoints freely without perturbing the byte-identical merge.
//
// The moving parts:
//
//   - Every endpoint runs Slots dispatcher loops over one shared FIFO
//     queue. A loop prefers shards whose home endpoint it is (index
//     round-robin, which preserves the legacy placement and the chaos
//     suite's pinned schedules) and otherwise steals the oldest ready
//     shard whose home endpoint has made its first take.
//   - Each endpoint carries a circuit breaker (epHealth): consecutive
//     failures open it, an open endpoint parks instead of taking work,
//     and after a cooldown it closes one failure short of re-opening.
//   - A running shard whose age exceeds max(hedgeMin, hedgeFactor ×
//     fleet latency EWMA) may be hedged: re-dispatched to a different
//     healthy endpoint, at most maxHedges extra attempts at a time.
//     Hedge attempts write to a side path and the first valid result
//     is renamed into place, so racing writers never share a file.
//   - When every breaker is open, parked loops drain the queue on an
//     in-process LocalWorker sharing the Injector — the campaign
//     degrades to local execution rather than failing.

// The hedging policy: the straggler multiple of the fleet latency
// EWMA, the age floor below which no shard is a straggler, and the
// extra attempts one shard may have in flight at once.
const (
	hedgeFactor = 3
	hedgeMin    = 200 * time.Millisecond
	maxHedges   = 1
)

type taskState int

const (
	taskPending taskState = iota
	taskRunning
	taskDone
	taskFailed
)

// task is one shard's dispatch lifecycle. All fields are guarded by
// the dispatcher's mutex.
type task struct {
	sh   Shard
	st   *api.ShardStats
	home int // preferred endpoint (legacy round-robin placement)

	state       taskState
	notBefore   time.Time // backoff gate while pending
	prevBackoff time.Duration
	retriesLeft int
	hedging     int // concurrent extra attempts in flight
	running     []*attempt
	failedOn    map[int]bool // endpoints this shard already failed on
	dispatched  time.Time    // first dispatch, for WallNS
}

// attempt is one execution of a task on one endpoint (or the
// fallback, ep == -1). Hedge attempts write a side path.
type attempt struct {
	t      *task
	ep     int
	hedge  bool
	path   string
	start  time.Time
	ctx    context.Context
	cancel context.CancelFunc
}

type dispatcher struct {
	mu   sync.Mutex
	cond *sync.Cond

	ctx    context.Context
	cancel context.CancelFunc
	c      *Campaign
	opts   Options

	eps      []*epHealth
	fallback Worker
	tasks    []*task // FIFO by shard index; states live on the tasks

	total        int
	done, failed int // failed is also the fail-fast budget consumed

	fleetEWMA float64
	casesDone int
	casesBase int // cases covered by resumed (skipped) shards

	retried   int
	hedges    int
	hedgesWon int
	steals    int
	requeues  int
	fallbacks int

	rng      splitmix64
	hedgeSeq int
	start    time.Time
}

func newDispatcher(ctx context.Context, cancel context.CancelFunc, c *Campaign, opts Options, queue []Shard, res *Result, casesBase int) *dispatcher {
	d := &dispatcher{
		c:         c,
		opts:      opts,
		casesBase: casesBase,
		start:     time.Now(),
	}
	d.cond = sync.NewCond(&d.mu)
	d.ctx, d.cancel = ctx, cancel
	d.rng.s = uint64(time.Now().UnixNano())

	eps := opts.Endpoints
	if len(eps) == 0 {
		eps = []Endpoint{{Worker: opts.Worker, Name: opts.Worker.Name(), Slots: opts.Workers}}
	}
	for i, ep := range eps {
		if ep.Slots <= 0 {
			ep.Slots = 1
		}
		if ep.Name == "" {
			ep.Name = ep.Worker.Name()
			if len(eps) > 1 {
				ep.Name = fmt.Sprintf("%s[%d]", ep.Name, i)
			}
		}
		d.eps = append(d.eps, &epHealth{Endpoint: ep, index: i, state: healthClosed})
	}
	d.fallback = &LocalWorker{Injector: opts.Injector}
	for _, sh := range queue {
		d.tasks = append(d.tasks, &task{
			sh:          sh,
			st:          &res.Shards[sh.Index],
			home:        sh.Index % len(d.eps),
			retriesLeft: opts.Retries,
			failedOn:    map[int]bool{},
		})
	}
	d.total = len(d.tasks)
	return d
}

// run drives every endpoint slot until all tasks settle or the pass is
// cancelled, then emits a final progress snapshot.
func (d *dispatcher) run() {
	stop := make(chan struct{})
	go func() {
		// A context cancellation must wake parked slots.
		select {
		case <-d.ctx.Done():
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		case <-stop:
		}
	}()
	var wg sync.WaitGroup
	for _, ep := range d.eps {
		for s := 0; s < ep.Slots; s++ {
			wg.Add(1)
			go func(ep *epHealth) {
				defer wg.Done()
				d.slotLoop(ep)
			}(ep)
		}
	}
	wg.Wait()
	close(stop)
	d.mu.Lock()
	d.emitProgress()
	d.mu.Unlock()
}

// slotLoop is one dispatch slot on one endpoint: gate on the breaker,
// take pending work (home first, then steal), hedge stragglers when
// idle, execute, settle, repeat.
func (d *dispatcher) slotLoop(ep *epHealth) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.ctx.Err() != nil || d.done+d.failed >= d.total {
			return
		}
		now := time.Now()
		ep.tick(now)
		var at *attempt
		switch ep.state {
		case healthOpen:
			if d.allOpen() {
				// Graceful degradation: every breaker is open, so parked
				// slots drain the queue on the fallback worker.
				if t := d.takePending(ep.index, now, true); t != nil {
					at = d.newAttempt(t, -1, false)
					d.fallbacks++
					break
				}
			}
			d.waitUntil(ep.openUntil)
			continue
		default: // closed
			if t := d.takePending(ep.index, now, false); t != nil {
				at = d.newAttempt(t, ep.index, false)
			} else if t := d.takeHedge(ep.index, now); t != nil {
				at = d.newAttempt(t, ep.index, true)
			} else {
				d.waitTimed(ep.index, now)
				continue
			}
		}
		d.emitProgress()
		d.mu.Unlock()
		runErr := d.execute(at)
		info, inspErr := InspectShard(at.path, d.c.ShardHeader(at.t.sh))
		d.mu.Lock()
		d.settle(at, info, runErr, inspErr)
	}
}

// execute runs one attempt outside the lock.
func (d *dispatcher) execute(at *attempt) error {
	w := d.fallback
	if at.ep >= 0 {
		w = d.eps[at.ep].Worker
	}
	return w.RunShard(at.ctx, d.c, at.t.sh, at.path)
}

// takePending returns the next ready pending task for this endpoint:
// home-affinity shards in FIFO order first (preserving the legacy
// schedule on a single endpoint), then the oldest stealable shard. A
// shard is stealable only once its home endpoint has made its first
// take, so the first endpoint scheduled at start-up cannot drain every
// other endpoint's queue; that first take broadcasts so parked slots
// look again. A task poisoned against this endpoint (it already failed
// there) is skipped until every endpoint is poisoned — at which point
// the blame is the shard's and anyone may retry it. The fallback path
// ignores poisoning: it is the route of last resort.
func (d *dispatcher) takePending(epIdx int, now time.Time, viaFallback bool) *task {
	if ep := d.eps[epIdx]; !ep.started {
		ep.started = true
		d.cond.Broadcast()
	}
	var steal *task
	for _, t := range d.tasks {
		if t.state != taskPending || t.notBefore.After(now) {
			continue
		}
		if viaFallback {
			return t
		}
		if t.failedOn[epIdx] && !d.allPoisoned(t) {
			continue
		}
		if t.home == epIdx {
			return t
		}
		if steal == nil && d.eps[t.home].started {
			steal = t
		}
	}
	return steal
}

// allPoisoned reports whether t has failed on every endpoint.
func (d *dispatcher) allPoisoned(t *task) bool {
	return len(t.failedOn) >= len(d.eps)
}

// hedgeThreshold is the age past which a running shard counts as a
// straggler. Before the first completion there is no EWMA baseline to
// be slow against and the hedgeMin floor alone decides — which keeps
// hedging live even when a blackholed endpoint swallows every shard
// before anything finishes.
func (d *dispatcher) hedgeThreshold() time.Duration {
	return max(time.Duration(hedgeFactor*d.fleetEWMA), hedgeMin)
}

// hedgeEligible reports whether epIdx could usefully hedge t: the task
// is running somewhere else, has hedge budget, and hasn't already
// failed here. Hedging onto the endpoint already running the shard
// would duplicate the straggler, not route around it. With maxHedges
// at 1, an eligible task has exactly one attempt in flight, so
// t.running[0].start is its age reference.
func (d *dispatcher) hedgeEligible(t *task, epIdx int) bool {
	if t.state != taskRunning || len(t.running) == 0 {
		return false
	}
	if t.hedging >= maxHedges || t.failedOn[epIdx] {
		return false
	}
	for _, a := range t.running {
		if a.ep == epIdx {
			return false
		}
	}
	return true
}

// takeHedge picks the longest-running straggler this endpoint may
// speculatively re-execute, if any is past the hedge threshold.
func (d *dispatcher) takeHedge(epIdx int, now time.Time) *task {
	if len(d.eps) < 2 {
		return nil
	}
	th := d.hedgeThreshold()
	var best *task
	var bestStart time.Time
	for _, t := range d.tasks {
		if !d.hedgeEligible(t, epIdx) {
			continue
		}
		start := t.running[0].start
		if now.Sub(start) < th {
			continue
		}
		if best == nil || start.Before(bestStart) {
			best = t
			bestStart = start
		}
	}
	return best
}

// newAttempt registers a dispatch under the lock: the attempt context
// exists before execution starts so a racing winner can cancel it.
func (d *dispatcher) newAttempt(t *task, epIdx int, hedge bool) *attempt {
	now := time.Now()
	path := ShardPath(d.opts.OutDir, t.sh.Index)
	at := &attempt{t: t, ep: epIdx, hedge: hedge, start: now}
	if d.opts.ShardTimeout > 0 {
		at.ctx, at.cancel = context.WithTimeout(d.ctx, d.opts.ShardTimeout)
	} else {
		at.ctx, at.cancel = context.WithCancel(d.ctx)
	}
	if hedge {
		// A hedge races the primary; it writes a side path and the winner
		// is renamed into place, so two workers never share a file.
		d.hedgeSeq++
		path = fmt.Sprintf("%s.hedge-%d", path, d.hedgeSeq)
		t.hedging++
		t.st.Hedges++
		d.hedges++
	}
	at.path = path
	if t.state == taskPending {
		t.state = taskRunning
	}
	if t.dispatched.IsZero() {
		t.dispatched = now
	}
	t.running = append(t.running, at)
	t.st.Attempts++
	if !hedge && epIdx >= 0 && epIdx != t.home && len(d.eps) > 1 {
		t.st.Stolen = true
		d.steals++
	}
	return at
}

// settle resolves one finished attempt under the lock. The first valid
// shard file wins; everything else is attributed — to the endpoint
// (free requeue, breaker charge), to the spec (permanent failure), or
// to the shard (retry budget).
func (d *dispatcher) settle(at *attempt, info ShardInfo, runErr, inspErr error) {
	defer func() {
		d.emitProgress()
		d.cond.Broadcast()
	}()
	at.cancel()
	t := at.t
	for i, a := range t.running {
		if a == at {
			t.running = append(t.running[:i], t.running[i+1:]...)
			break
		}
	}
	var ep *epHealth
	if at.ep >= 0 {
		ep = d.eps[at.ep]
	}
	if at.hedge {
		t.hedging--
	}

	if t.state == taskDone || t.state == taskFailed {
		// Lost the race: the shard settled while this attempt ran. The
		// winner already charged the laggards; just clean up.
		if at.hedge {
			os.Remove(at.path)
		}
		return
	}

	now := time.Now()
	valid := inspErr == nil && info.State == StateValid
	if valid && at.hedge {
		if err := os.Rename(at.path, ShardPath(d.opts.OutDir, t.sh.Index)); err != nil {
			os.Remove(at.path)
			valid = false
			runErr = fmt.Errorf("sweep: promote hedged shard %d: %w", t.sh.Index, err)
		}
	}

	if valid {
		t.state = taskDone
		d.done++
		d.casesDone += info.Cases
		dur := now.Sub(at.start)
		const alpha = 0.3
		if d.fleetEWMA == 0 {
			d.fleetEWMA = float64(dur.Nanoseconds())
		} else {
			d.fleetEWMA = (1-alpha)*d.fleetEWMA + alpha*float64(dur.Nanoseconds())
		}
		if ep != nil {
			ep.credit(dur)
		}
		t.st.State = StateValid
		t.st.Error = ""
		t.st.Endpoint = d.endpointName(at)
		t.st.Worker = d.workerFor(at).Name()
		t.st.WallNS = now.Sub(t.dispatched).Nanoseconds()
		if at.hedge {
			d.hedgesWon++
			t.st.HedgeWon = true
			// The hedge beat the primary — that endpoint is slow for this
			// fleet right now. Losing the race is its health signal.
			for _, a := range t.running {
				if !a.hedge && a.ep >= 0 {
					d.chargeEndpoint(d.eps[a.ep], now)
				}
			}
		}
		for _, a := range t.running {
			a.cancel()
		}
		logf(d.opts.Log, "shard %d/%d [%d,%d) valid on %s (attempt %d)",
			t.sh.Index, t.sh.Count, t.sh.From, t.sh.To, d.endpointName(at), t.st.Attempts)
		return
	}

	// Attribute the failure.
	err := runErr
	if inspErr != nil {
		err = inspErr
	} else if err == nil {
		err = fmt.Errorf("worker reported success but shard file is %s: %s", info.State, info.Reason)
	}
	if at.hedge {
		os.Remove(at.path)
	}
	logf(d.opts.Log, "shard %d/%d [%d,%d) attempt %d on %s failed: %v",
		t.sh.Index, t.sh.Count, t.sh.From, t.sh.To, t.st.Attempts, d.endpointName(at), err)

	permanent := inspErr != nil || IsPermanent(runErr)
	endpointFault := !permanent && at.ep >= 0 && IsEndpointFault(runErr)

	if endpointFault {
		// The endpoint's fault, not the shard's: poison this pairing,
		// charge the breaker, and requeue without touching the retry
		// budget. Only a shard that fails on *every* endpoint flips the
		// blame back onto itself.
		t.failedOn[at.ep] = true
		t.st.Requeues++
		d.requeues++
		d.chargeEndpoint(ep, now)
	} else if ep != nil {
		// Shard-attributed failures still count against health: an
		// endpoint emitting torn files is as suspect as one timing out.
		d.chargeEndpoint(ep, now)
	}

	if permanent {
		// No retry can fix a rejected spec; cancel the racers and fail.
		for _, a := range t.running {
			a.cancel()
		}
		d.fail(t, err, now)
		return
	}
	if len(t.running) > 0 {
		// Other attempts are still racing; they decide the shard's fate.
		return
	}
	if endpointFault && !d.allPoisoned(t) {
		t.state = taskPending
		t.notBefore = time.Time{}
		return
	}
	if t.retriesLeft > 0 && d.ctx.Err() == nil {
		t.retriesLeft--
		d.retried++
		t.prevBackoff = jitterBackoff(&d.rng, d.opts.Backoff, t.prevBackoff)
		t.notBefore = now.Add(t.prevBackoff)
		t.state = taskPending
		return
	}
	d.fail(t, err, now)
}

// fail settles t as failed and spends one unit of the fail-fast
// budget, cancelling the pass when it runs out.
func (d *dispatcher) fail(t *task, err error, now time.Time) {
	t.state = taskFailed
	d.failed++
	t.st.State = "failed"
	if err != nil {
		t.st.Error = err.Error()
	}
	if !t.dispatched.IsZero() {
		t.st.WallNS = now.Sub(t.dispatched).Nanoseconds()
	}
	if d.failed >= d.opts.MaxFailures {
		d.cancel()
	}
}

// chargeEndpoint records a failure against ep's breaker with a
// jittered cooldown, so a fleet's breakers don't close in lockstep.
func (d *dispatcher) chargeEndpoint(ep *epHealth, now time.Time) {
	ep.charge(now, breakerCooldown/2+time.Duration(d.rng.float01()*float64(breakerCooldown)))
}

// allOpen reports whether every endpoint's breaker is open — the
// fallback trigger.
func (d *dispatcher) allOpen() bool {
	for _, ep := range d.eps {
		if ep.state != healthOpen {
			return false
		}
	}
	return true
}

func (d *dispatcher) endpointName(at *attempt) string {
	if at.ep < 0 {
		return "fallback"
	}
	return d.eps[at.ep].Name
}

func (d *dispatcher) workerFor(at *attempt) Worker {
	if at.ep < 0 {
		return d.fallback
	}
	return d.eps[at.ep].Worker
}

// waitTimed parks the slot until the next actionable moment for this
// endpoint: a pending task leaving backoff, or a running task crossing
// the hedge threshold (if this endpoint could hedge it). With no timed
// event in sight it waits for a settle/dispatch broadcast.
func (d *dispatcher) waitTimed(epIdx int, now time.Time) {
	var next time.Time
	consider := func(at time.Time) {
		if at.After(now) && (next.IsZero() || at.Before(next)) {
			next = at
		}
	}
	canHedge := len(d.eps) >= 2
	th := d.hedgeThreshold()
	for _, t := range d.tasks {
		switch t.state {
		case taskPending:
			consider(t.notBefore)
		case taskRunning:
			if canHedge && d.hedgeEligible(t, epIdx) {
				consider(t.running[0].start.Add(th))
			}
		}
	}
	d.waitUntil(next)
}

// waitUntil waits for a broadcast, waking itself at deadline t if no
// one else does. A zero t waits indefinitely (the next settle or
// cancellation will broadcast).
func (d *dispatcher) waitUntil(t time.Time) {
	if t.IsZero() {
		d.cond.Wait()
		return
	}
	now := time.Now()
	if !t.After(now) {
		return
	}
	tm := time.AfterFunc(t.Sub(now), func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer tm.Stop()
	d.cond.Wait()
}

// emitProgress pushes a snapshot to Options.OnProgress (called under
// the lock; the callback must not block or re-enter the coordinator).
func (d *dispatcher) emitProgress() {
	if d.opts.OnProgress == nil {
		return
	}
	d.opts.OnProgress(d.snapshot())
}

// snapshot renders the dispatcher's state as a wire Progress record.
func (d *dispatcher) snapshot() Progress {
	p := Progress{
		SchemaVersion:  api.SchemaVersion,
		Record:         api.RecordSweepProgress,
		Campaign:       d.c.Spec.Name,
		CampaignDigest: d.c.Digest,
		Shards:         d.c.Spec.Shards,
		Done:           d.c.Spec.Shards - d.total + d.done,
		Failed:         d.failed,
		Retried:        d.retried,
		Hedges:         d.hedges,
		Steals:         d.steals,
		Requeues:       d.requeues,
		Fallbacks:      d.fallbacks,
		CasesTotal:     d.c.Cases(),
		CasesDone:      d.casesBase + d.casesDone,
		ElapsedNS:      time.Since(d.start).Nanoseconds(),
	}
	for _, t := range d.tasks {
		switch t.state {
		case taskPending:
			p.Pending++
		case taskRunning:
			p.Running++
		}
	}
	slots := 0
	for _, ep := range d.eps {
		p.Workers = append(p.Workers, ep.snapshot())
		if ep.state != healthOpen {
			slots += ep.Slots
		}
	}
	if slots == 0 {
		slots = 1
	}
	if remaining := p.Pending + p.Running; remaining > 0 && d.fleetEWMA > 0 {
		p.EtaNS = int64(d.fleetEWMA * float64(remaining) / float64(slots))
	}
	return p
}
