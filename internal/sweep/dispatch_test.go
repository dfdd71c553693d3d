package sweep_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// downWorker always fails with an endpoint-attributed error — the
// shape of a dead remote whose connections are refused.
type downWorker struct{}

func (*downWorker) Name() string { return "down" }
func (*downWorker) RunShard(ctx context.Context, c *sweep.Campaign, sh sweep.Shard, path string) error {
	return sweep.EndpointFault(errors.New("synthetic: connection refused"))
}

// rejectWorker always fails permanently — the shape of an HTTP 400:
// the spec itself is refused and retrying cannot help.
type rejectWorker struct{}

func (*rejectWorker) Name() string { return "reject" }
func (*rejectWorker) RunShard(ctx context.Context, c *sweep.Campaign, sh sweep.Shard, path string) error {
	return sweep.Permanent(errors.New("synthetic: spec rejected"))
}

// crashWorker always fails with an unclassified error — the shape of
// an in-process execution fault, attributed to the shard.
type crashWorker struct{}

func (*crashWorker) Name() string { return "crash" }
func (*crashWorker) RunShard(ctx context.Context, c *sweep.Campaign, sh sweep.Shard, path string) error {
	return errors.New("synthetic: worker crashed")
}

// TestChaosMatrixFleet is the acceptance scenario: a 3-endpoint fleet
// with one healthy, one flaky (fails twice, then works) and one
// blackholed worker (accepts shards and hangs) must complete the
// campaign without exhausting the fail-fast budget, report hedged and
// stolen shards, and still merge byte-identically to a single-process
// run — at every slot count in {1, 2, 4, 8}.
func TestChaosMatrixFleet(t *testing.T) {
	spec := scenarioSpec(23, 12)
	want := singleProcessBytes(t, spec)
	var matrixRequeues int
	for _, slots := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("slots=%d", slots), func(t *testing.T) {
			flaky := sweep.NewInjector()
			flaky.Flaky = sweep.AnyShard
			flaky.FlakyTimes = 2
			hole := sweep.NewInjector()
			hole.Blackhole = sweep.AnyShard
			// Pace the healthy endpoint so it cannot drain the whole queue
			// before the faulty endpoints' slots are even scheduled.
			pace := sweep.NewInjector()
			pace.Slow = sweep.AnyShard
			pace.SlowDelay = 5 * time.Millisecond
			c := mustLoad(t, sweep.WrapScenario(spec, 6))
			res := runCoordinator(t, c, sweep.Options{
				OutDir:      t.TempDir(),
				MaxFailures: 1,
				Endpoints: []sweep.Endpoint{
					{Worker: &sweep.LocalWorker{Injector: pace}, Name: "good", Slots: slots},
					{Worker: &sweep.LocalWorker{Injector: flaky}, Name: "flaky", Slots: slots},
					{Worker: &sweep.LocalWorker{Injector: hole}, Name: "hole", Slots: slots},
				},
			})
			if got := readOut(t, res); !bytes.Equal(got, want) {
				t.Fatal("chaos fleet merge differs from single-process run")
			}
			s := res.Stats
			if s.Hedges == 0 || s.HedgesWon == 0 {
				t.Errorf("hedges=%d won=%d, want blackholed shards rescued by hedging", s.Hedges, s.HedgesWon)
			}
			// At high slot counts the healthy endpoint can legitimately
			// drain the queue before the flaky endpoint's slots wake, so
			// requeues are asserted across the matrix, not per run.
			matrixRequeues += s.Requeues
			if s.Steals == 0 {
				t.Errorf("steals=0, want requeued shards stolen by healthy endpoints")
			}
			if s.Retried != 0 {
				t.Errorf("retried=%d, want 0: endpoint faults must not burn the shard retry budget", s.Retried)
			}
			if len(s.WorkerHealth) != 3 {
				t.Fatalf("worker health entries = %d, want 3", len(s.WorkerHealth))
			}
			for _, wh := range s.WorkerHealth {
				if wh.Name == "" || wh.State == "" {
					t.Errorf("unnamed or stateless health entry: %+v", wh)
				}
			}
		})
	}
	if matrixRequeues == 0 {
		t.Error("requeues=0 across the whole matrix, want flaky failures requeued without charging the shard budget")
	}
}

// TestRouteAroundDeadEndpoint pins the quarantine economics: a dead
// remote in the fleet costs requeues (free) — never shard retries —
// and the campaign still merges byte-identically.
func TestRouteAroundDeadEndpoint(t *testing.T) {
	spec := scenarioSpec(31, 6)
	want := singleProcessBytes(t, spec)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	res := runCoordinator(t, c, sweep.Options{
		OutDir:      t.TempDir(),
		MaxFailures: 1,
		Endpoints: []sweep.Endpoint{
			{Worker: &sweep.LocalWorker{}, Name: "good"},
			{Worker: &downWorker{}, Name: "dead"},
		},
	})
	if got := readOut(t, res); !bytes.Equal(got, want) {
		t.Fatal("merge with dead endpoint differs from single-process run")
	}
	if res.Stats.Retried != 0 {
		t.Errorf("retried=%d, want 0: the dead endpoint must not burn the retry budget", res.Stats.Retried)
	}
	if res.Stats.Requeues == 0 {
		t.Error("requeues=0, want the dead endpoint's shards requeued elsewhere")
	}
	for _, wh := range res.Stats.WorkerHealth {
		if wh.Name == "dead" && wh.Failures == 0 {
			t.Error("dead endpoint shows no recorded failures")
		}
	}
}

// TestFallbackWhenFleetQuarantined pins graceful degradation: with
// every endpoint open-circuit, parked slots drain the queue on the
// local fallback worker instead of failing the campaign. Each down
// endpoint fails its three home shards, which opens its breaker.
func TestFallbackWhenFleetQuarantined(t *testing.T) {
	spec := scenarioSpec(41, 6)
	want := singleProcessBytes(t, spec)
	c := mustLoad(t, sweep.WrapScenario(spec, 6))
	res := runCoordinator(t, c, sweep.Options{
		OutDir:      t.TempDir(),
		MaxFailures: 1,
		Endpoints: []sweep.Endpoint{
			{Worker: &downWorker{}, Name: "down-a"},
			{Worker: &downWorker{}, Name: "down-b"},
		},
	})
	if got := readOut(t, res); !bytes.Equal(got, want) {
		t.Fatal("fallback merge differs from single-process run")
	}
	if res.Stats.Fallbacks != 6 {
		t.Errorf("fallbacks=%d, want every shard (6) to run on the local fallback", res.Stats.Fallbacks)
	}
	for _, wh := range res.Stats.WorkerHealth {
		if wh.State != "open" {
			t.Errorf("endpoint %s state %q, want open", wh.Name, wh.State)
		}
	}
	for _, st := range res.Shards {
		if st.Endpoint != "fallback" {
			t.Errorf("shard %d ran on %q, want fallback", st.Shard, st.Endpoint)
		}
	}
}

// TestPermanentFailureSkipsRetryBudget pins the 400-class contract: a
// permanent rejection fails the shard on the first attempt with the
// whole retry budget unspent.
func TestPermanentFailureSkipsRetryBudget(t *testing.T) {
	spec := scenarioSpec(53, 4)
	c := mustLoad(t, sweep.WrapScenario(spec, 2))
	res, err := sweep.Run(context.Background(), c, sweep.Options{
		OutDir:      t.TempDir(),
		Workers:     1,
		Retries:     3,
		MaxFailures: 1,
		Worker:      &rejectWorker{},
	})
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("permanent failure: err=%v, want incomplete-pass error naming resume", err)
	}
	if got := res.Shards[0].Attempts; got != 1 {
		t.Errorf("shard 0 attempts=%d, want 1: no retry may follow a permanent rejection", got)
	}
	if !strings.Contains(res.Shards[0].Error, "spec rejected") {
		t.Errorf("shard 0 error %q, want the rejection surfaced", res.Shards[0].Error)
	}
	if res.Stats.Retried != 0 {
		t.Errorf("retried=%d, want 0", res.Stats.Retried)
	}
}

// TestCancelDuringBackoffReturnsPromptly pins the satellite contract:
// a coordinator cancelled while every shard sits in retry backoff
// returns immediately instead of sleeping the backoff out.
func TestCancelDuringBackoffReturnsPromptly(t *testing.T) {
	spec := scenarioSpec(61, 4)
	c := mustLoad(t, sweep.WrapScenario(spec, 2))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := sweep.Run(ctx, c, sweep.Options{
		OutDir:      t.TempDir(),
		Workers:     1,
		Retries:     3,
		Backoff:     30 * time.Second,
		MaxFailures: 10,
		Worker:      &crashWorker{},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled pass reported success")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation during a 30s backoff took %v, want a prompt return", elapsed)
	}
}

// TestInspectShardForeignCaseRange pins the satellite classification:
// a shard file with a perfectly valid digest footer whose header case
// range disagrees with the campaign layout is foreign — never valid.
func TestInspectShardForeignCaseRange(t *testing.T) {
	spec := scenarioSpec(71, 6)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	sh, err := c.ShardAt(0)
	if err != nil {
		t.Fatal(err)
	}
	path := sweep.ShardPath(t.TempDir(), 0)
	if err := sweep.ExecuteShardFile(context.Background(), c, sh, path, nil); err != nil {
		t.Fatal(err)
	}
	info, err := sweep.InspectShard(path, c.ShardHeader(sh))
	if err != nil || info.State != sweep.StateValid {
		t.Fatalf("sanity: freshly executed shard is %s (%v)", info.State, err)
	}
	// Same bytes, same intact footer — but the coordinator's layout says
	// shard 0 spans one more case than the header admits.
	want := c.ShardHeader(sh)
	want.To++
	info, err = sweep.InspectShard(path, want)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != sweep.StateForeign {
		t.Fatalf("range-mismatched shard classified %s (%s), want foreign", info.State, info.Reason)
	}
}

// TestParseFaultsExtended covers the flaky/slow/blackhole grammar and
// the "*" wildcard.
func TestParseFaultsExtended(t *testing.T) {
	inj, err := sweep.ParseFaults("flaky:*:2,slow:1:50,blackhole:*")
	if err != nil {
		t.Fatal(err)
	}
	if inj.Flaky != sweep.AnyShard || inj.FlakyTimes != 2 {
		t.Errorf("flaky = (%d,%d), want (*,2)", inj.Flaky, inj.FlakyTimes)
	}
	if inj.Slow != 1 || inj.SlowDelay != 50*time.Millisecond {
		t.Errorf("slow = (%d,%v), want (1,50ms)", inj.Slow, inj.SlowDelay)
	}
	if inj.Blackhole != sweep.AnyShard {
		t.Errorf("blackhole = %d, want *", inj.Blackhole)
	}
	for _, bad := range []string{"flaky:1", "slow:x:5", "blackhole:", "kill:*", "flaky:0:x"} {
		if _, err := sweep.ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted", bad)
		}
	}
}

// TestSlowEndpointStillMerges runs a fleet with one injected-latency
// straggler, slower than the 200ms hedge floor: the campaign completes
// and merges identically, with the slow worker's shards hedged rather
// than stalling the pass.
func TestSlowEndpointStillMerges(t *testing.T) {
	spec := scenarioSpec(79, 8)
	want := singleProcessBytes(t, spec)
	slow := sweep.NewInjector()
	slow.Slow = sweep.AnyShard
	slow.SlowDelay = 300 * time.Millisecond
	c := mustLoad(t, sweep.WrapScenario(spec, 4))
	res := runCoordinator(t, c, sweep.Options{
		OutDir:      t.TempDir(),
		MaxFailures: 1,
		Endpoints: []sweep.Endpoint{
			{Worker: &sweep.LocalWorker{}, Name: "fast", Slots: 2},
			{Worker: &sweep.LocalWorker{Injector: slow}, Name: "slow", Slots: 2},
		},
	})
	if got := readOut(t, res); !bytes.Equal(got, want) {
		t.Fatal("slow-endpoint merge differs from single-process run")
	}
	if res.Stats.Hedges == 0 {
		t.Error("hedges=0, want the slow endpoint's shards hedged")
	}
}

// TestQuarantinedEndpointRecovers pins the breaker's way back: an
// endpoint that fails three times in a row is quarantined, and once
// its cooldown ends it takes work again and ends healthy, while the
// campaign merges byte-identically. The good endpoint is paced so the
// campaign outlasts the longest cooldown.
func TestQuarantinedEndpointRecovers(t *testing.T) {
	spec := scenarioSpec(107, 16)
	want := singleProcessBytes(t, spec)
	pace, err := sweep.ParseFaults("slow:*:150")
	if err != nil {
		t.Fatal(err)
	}
	flaky, err := sweep.ParseFaults("flaky:*:3")
	if err != nil {
		t.Fatal(err)
	}
	c := mustLoad(t, sweep.WrapScenario(spec, 16))
	res := runCoordinator(t, c, sweep.Options{
		OutDir:      t.TempDir(),
		MaxFailures: 1,
		Endpoints: []sweep.Endpoint{
			{Worker: &sweep.LocalWorker{Injector: pace}, Name: "good"},
			{Worker: &sweep.LocalWorker{Injector: flaky}, Name: "flaky"},
		},
	})
	if got := readOut(t, res); !bytes.Equal(got, want) {
		t.Fatal("merge with a recovering endpoint differs from single-process run")
	}
	wh := res.Stats.WorkerHealth
	if len(wh) != 2 || wh[1].Name != "flaky" {
		t.Fatalf("worker health %+v, want good then flaky", wh)
	}
	if wh[1].State != "healthy" || wh[1].Failures != 3 || wh[1].Successes < 1 {
		t.Errorf("flaky endpoint ended %+v, want healthy with 3 failures and at least 1 success", wh[1])
	}
}

// TestFailingFleetReportsSlotTotal pins the incomplete-pass report of
// a fleet: the error and the stats sidecar both count the fleet's
// slots, not Options.Workers.
func TestFailingFleetReportsSlotTotal(t *testing.T) {
	c := mustLoad(t, sweep.WrapScenario(scenarioSpec(109, 4), 2))
	res, err := sweep.Run(context.Background(), c, sweep.Options{
		OutDir:      t.TempDir(),
		MaxFailures: 1,
		Endpoints: []sweep.Endpoint{
			{Worker: &rejectWorker{}, Name: "reject-a", Slots: 2},
			{Worker: &rejectWorker{}, Name: "reject-b", Slots: 2},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "incomplete after 4 worker(s)") {
		t.Fatalf("err=%v, want an incomplete-pass error counting the fleet's 4 slots", err)
	}
	if res.Stats.Workers != 4 {
		t.Errorf("stats workers=%d, want 4", res.Stats.Workers)
	}
}
