package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
)

// Options configure one coordinator pass over a campaign.
type Options struct {
	// Workers is the number of shards in flight at once (default 1).
	Workers int
	// OutDir holds the campaign spec, the shard files, the stats
	// sidecar, and (by default) the merged output. Required.
	OutDir string
	// Out is the merged campaign file path (default OutDir/campaign.jsonl).
	Out string
	// Resume skips shards whose files already end in a valid footer and
	// re-executes only torn, missing, foreign or failed shards. Without
	// it every shard is re-executed from scratch.
	Resume bool
	// Retries is the extra attempts per shard beyond the first.
	Retries int
	// Backoff is the base wait before a retry (default 100ms). Actual
	// waits use decorrelated jitter in [Backoff, 10×Backoff] so
	// simultaneous failures spread out instead of retrying in lockstep.
	Backoff time.Duration
	// MaxFailures is the fail-fast budget: once this many shards have
	// exhausted their retries, in-flight work is cancelled (default 1).
	MaxFailures int
	// Worker executes shards (default an in-process LocalWorker). When
	// Endpoints is empty, the coordinator wraps Worker as a single
	// endpoint with Workers slots.
	Worker Worker
	// Endpoints, when set, spreads shards across independently
	// health-tracked workers: each gets its own circuit breaker (3
	// consecutive failures open it for a jittered 500ms) and latency
	// EWMA, its Slots concurrent shards, and work-stealing / hedging
	// move shards between them. A running shard older than max(200ms,
	// 3× the fleet latency EWMA) may be speculatively re-dispatched to
	// another healthy endpoint, first valid shard file wins (hedging
	// needs at least two endpoints). Overrides Worker and Workers for
	// execution.
	Endpoints []Endpoint
	// ShardTimeout bounds a single shard attempt; 0 means unbounded.
	// The safety net for a fleet whose every endpoint accepts work and
	// hangs — hedging only rescues stragglers while someone completes.
	ShardTimeout time.Duration
	// Injector arms test-only chaos; it is handed to the default
	// LocalWorker and drives the coordinator-side duplicate-shard fault.
	Injector *Injector
	// OnProgress, when set, receives a live Progress snapshot after
	// every dispatch and settle (called synchronously under the
	// dispatcher lock — hand it to a ProgressTracker, don't block).
	OnProgress func(Progress)
	// Log, when set, receives human progress lines.
	Log io.Writer
}

// Result is one coordinator pass: where the merged file landed and the
// per-shard accounting that also lands in the stats sidecar.
type Result struct {
	Campaign  *Campaign
	Out       string
	StatsPath string
	Shards    []api.ShardStats
	Stats     api.SweepStats
}

// ShardPath names shard i's file inside dir.
func ShardPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.jsonl", i))
}

// SpecPath names the normalized campaign spec file inside dir.
func SpecPath(dir string) string { return filepath.Join(dir, "campaign.json") }

// MergedPath names the default merged campaign file inside dir.
func MergedPath(dir string) string { return filepath.Join(dir, "campaign.jsonl") }

// Run executes one coordinator pass: plan (skipping resumed shards),
// execute the rest on the worker pool with per-shard retries and the
// fail-fast budget, validate every shard file, and merge them in shard
// order into the campaign trace. On partial failure the completed
// shard files keep their value: the error says to re-run with resume,
// and a resume pass executes only what was lost. The merged file is
// byte-identical no matter how many passes, workers, or interleavings
// it took.
func Run(ctx context.Context, c *Campaign, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.MaxFailures <= 0 {
		opts.MaxFailures = 1
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.Worker == nil && len(opts.Endpoints) == 0 {
		opts.Worker = &LocalWorker{Injector: opts.Injector}
	}
	planWorker := "local"
	if opts.Worker != nil {
		planWorker = opts.Worker.Name()
	} else if len(opts.Endpoints) > 0 {
		planWorker = opts.Endpoints[0].Worker.Name()
	}
	if opts.OutDir == "" {
		return nil, fmt.Errorf("sweep: coordinator needs an out dir")
	}
	if opts.Out == "" {
		opts.Out = MergedPath(opts.OutDir)
	}
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if err := writeSpecFile(c, opts); err != nil {
		return nil, err
	}

	res := &Result{
		Campaign:  c,
		Out:       opts.Out,
		StatsPath: filepath.Join(opts.OutDir, "stats.jsonl"),
	}
	shards := c.Shards()
	res.Shards = make([]api.ShardStats, len(shards))

	// Plan: under resume, shards already ending in a valid footer are
	// skipped — the crash-recovery contract.
	var queue []Shard
	for _, sh := range shards {
		st := &res.Shards[sh.Index]
		*st = api.ShardStats{
			SchemaVersion: api.SchemaVersion,
			Record:        api.RecordShardStats,
			Shard:         sh.Index,
			From:          sh.From,
			To:            sh.To,
			Worker:        planWorker,
		}
		if opts.Resume {
			info, err := InspectShard(ShardPath(opts.OutDir, sh.Index), c.ShardHeader(sh))
			if err != nil {
				return nil, err
			}
			if info.State == StateValid {
				st.Skipped = true
				st.State = StateValid
				logf(opts.Log, "shard %d/%d [%d,%d) resumed: already valid", sh.Index, len(shards), sh.From, sh.To)
				continue
			}
			logf(opts.Log, "shard %d/%d [%d,%d) %s: re-executing", sh.Index, len(shards), sh.From, sh.To, info.State)
		}
		queue = append(queue, sh)
	}

	// Execute on the resilient dispatch layer: per-endpoint circuit
	// breakers, a work-stealing FIFO queue, hedged stragglers, jittered
	// retry backoff, the fail-fast budget cancelling in-flight shards
	// (whose torn files a resume pass then re-executes — a killed
	// worker never costs more than its in-flight shard), and local
	// fallback when the whole fleet is quarantined.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	skippedCases := 0
	for i := range res.Shards {
		if res.Shards[i].Skipped {
			skippedCases += res.Shards[i].To - res.Shards[i].From
		}
	}
	d := newDispatcher(runCtx, cancel, c, opts, queue, res, skippedCases)
	d.run()

	// Coordinator-side chaos: duplicate a completed shard over another
	// shard's path. The final validation below classifies it foreign.
	if src, dst, ok := opts.Injector.dupShards(); ok {
		if err := copyFile(ShardPath(opts.OutDir, src), ShardPath(opts.OutDir, dst)); err != nil {
			return res, fmt.Errorf("sweep: dup fault: %w", err)
		}
		logf(opts.Log, "injected duplicate: shard %d copied over shard %d", src, dst)
	}

	// Validate every shard file — including skipped and allegedly
	// successful ones — then merge or report what a resume pass must
	// redo.
	incomplete := 0
	for _, sh := range shards {
		st := &res.Shards[sh.Index]
		info, err := InspectShard(ShardPath(opts.OutDir, sh.Index), c.ShardHeader(sh))
		if err != nil {
			return res, err
		}
		if info.State != StateValid {
			incomplete++
			st.State = info.State
			if st.Error == "" {
				st.Error = info.Reason
			}
		}
	}
	res.Stats = sweepStats(c, res, d, len(queue), start)
	if serr := writeStats(res); serr != nil {
		return res, serr
	}
	if incomplete > 0 {
		return res, fmt.Errorf("sweep: %s: %d of %d shards incomplete after %d worker(s); completed shards are preserved — re-run with resume to execute only the missing work",
			c.Spec.Name, incomplete, len(shards), res.Stats.Workers)
	}

	if err := merge(c, shards, opts); err != nil {
		return res, err
	}
	logf(opts.Log, "merged %d shards (%d cases) into %s", len(shards), c.Cases(), opts.Out)
	return res, nil
}

// MergeDir validates every shard file in dir against the campaign and
// merges them into out — the coordinator's final step, exposed for
// merge-only passes over a directory whose shards were produced
// elsewhere (e.g. copied from workers on other hosts). No shard is
// executed; an invalid shard aborts with its classification.
func MergeDir(c *Campaign, dir, out string) error {
	if out == "" {
		out = MergedPath(dir)
	}
	shards := c.Shards()
	for _, sh := range shards {
		info, err := InspectShard(ShardPath(dir, sh.Index), c.ShardHeader(sh))
		if err != nil {
			return err
		}
		if info.State != StateValid {
			return fmt.Errorf("sweep: shard %d is %s (%s); execute it before merging", sh.Index, info.State, info.Reason)
		}
	}
	return merge(c, shards, Options{OutDir: dir, Out: out})
}

// merge streams the validated shard files, in shard order, into the
// campaign trace: the scenario header, every shard's case lines byte
// for byte (no re-encoding — what the worker wrote is what the merge
// emits), and the summary refolded from the decoded cases. Written to
// a temp file and renamed, so a torn merge is never mistaken for a
// campaign.
func merge(c *Campaign, shards []Shard, opts Options) error {
	tmp := opts.Out + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	defer os.Remove(tmp)
	defer f.Close()

	hdr, err := json.Marshal(c.Header())
	if err != nil {
		return err
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	cases := make([]api.TraceCase, 0, c.Cases())
	for _, sh := range shards {
		data, err := os.ReadFile(ShardPath(opts.OutDir, sh.Index))
		if err != nil {
			return fmt.Errorf("sweep: merge: %w", err)
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		for _, line := range lines[1 : len(lines)-1] {
			var rec api.TraceCase
			if err := json.Unmarshal(line, &rec); err != nil {
				return fmt.Errorf("sweep: merge: shard %d case line: %w", sh.Index, err)
			}
			cases = append(cases, rec)
			if _, err := f.Write(append(line, '\n')); err != nil {
				return fmt.Errorf("sweep: merge: %w", err)
			}
		}
	}
	sum, err := json.Marshal(scenario.Summarize(c.summaryName(), c.Cases(), cases, ""))
	if err != nil {
		return err
	}
	if _, err := f.Write(append(sum, '\n')); err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	if err := os.Rename(tmp, opts.Out); err != nil {
		return fmt.Errorf("sweep: merge: %w", err)
	}
	return nil
}

// writeSpecFile persists the normalized spec into the out dir so
// subprocess workers and resume passes run the exact campaign the
// coordinator planned. A resume pass against a dir holding a different
// campaign is refused instead of silently mixing shards.
func writeSpecFile(c *Campaign, opts Options) error {
	path := SpecPath(opts.OutDir)
	if opts.Resume {
		if prev, err := LoadFile(path, nil); err == nil {
			if prev.Digest != c.Digest {
				return fmt.Errorf("sweep: %s holds campaign %s (digest %s), not %s (digest %s) — use a fresh out dir",
					opts.OutDir, prev.Spec.Name, prev.Digest, c.Spec.Name, c.Digest)
			}
			return nil
		}
	}
	b, err := json.Marshal(c.Spec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

func writeStats(res *Result) error {
	f, err := os.Create(res.StatsPath)
	if err != nil {
		return fmt.Errorf("sweep: stats: %w", err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for i := range res.Shards {
		if err := enc.Encode(&res.Shards[i]); err != nil {
			return fmt.Errorf("sweep: stats: %w", err)
		}
	}
	if err := enc.Encode(&res.Stats); err != nil {
		return fmt.Errorf("sweep: stats: %w", err)
	}
	return f.Close()
}

// sweepStats folds the pass into its sidecar record. Workers is the
// fleet's slot total; a lone endpoint has Slots = Options.Workers.
func sweepStats(c *Campaign, res *Result, d *dispatcher, executed int, start time.Time) api.SweepStats {
	workers := 0
	for _, ep := range d.eps {
		workers += ep.Slots
	}
	s := api.SweepStats{
		SchemaVersion:  api.SchemaVersion,
		Record:         api.RecordSweepStats,
		Campaign:       c.Spec.Name,
		CampaignDigest: c.Digest,
		Cases:          c.Cases(),
		Shards:         c.Spec.Shards,
		Workers:        workers,
		Executed:       executed,
		Retried:        d.retried,
		Hedges:         d.hedges,
		HedgesWon:      d.hedgesWon,
		Steals:         d.steals,
		Requeues:       d.requeues,
		Fallbacks:      d.fallbacks,
		WallNS:         time.Since(start).Nanoseconds(),
		UnixTime:       time.Now().Unix(),
		GoVersion:      runtime.Version(),
	}
	for _, ep := range d.eps {
		s.WorkerHealth = append(s.WorkerHealth, ep.snapshot())
	}
	for i := range res.Shards {
		st := &res.Shards[i]
		if st.Skipped {
			s.Skipped++
		} else if st.State == StateValid {
			// The dispatcher marked it valid and the final inspection
			// kept it so: the shard became valid this pass, on
			// whichever worker ran it.
			s.CasesExecuted += int64(st.To - st.From)
		}
		if st.State != StateValid {
			s.Failed++
		}
	}
	return s
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func logf(w io.Writer, format string, args ...interface{}) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
