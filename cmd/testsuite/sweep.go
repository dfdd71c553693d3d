package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/simd"
	"repro/internal/sweep"
)

// runSweep dispatches the sweep subcommand family:
//
//	testsuite sweep run -spec campaign.json -shards 8 -shard-workers 4 -out-dir out/
//	testsuite sweep run -scenario spec.json -shards 4 -out campaign.jsonl
//	testsuite sweep run -spec campaign.json -out-dir out/ -resume
//	testsuite sweep run -spec campaign.json -out-dir out/ -subprocess
//	testsuite sweep run -spec campaign.json -out-dir out/ -remote http://a:8080,http://b:8080
//	testsuite sweep run -spec campaign.json -out-dir out/ -progress :8090
//	testsuite sweep worker -spec out/campaign.json -shard 3 -shard-out out/shard-0003.jsonl
//	testsuite sweep status -out-dir out/
//	testsuite sweep status -follow -url http://host:8090
//	testsuite sweep merge -out-dir out/ -out campaign.jsonl
func runSweep(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("sweep: usage: testsuite sweep run|worker|status|merge [flags] (see docs/SWEEP.md)")
	}
	switch args[0] {
	case "run":
		return sweepRun(args[1:])
	case "worker":
		return sweepWorker(args[1:])
	case "status":
		return sweepStatus(args[1:])
	case "merge":
		return sweepMerge(args[1:])
	default:
		return fmt.Errorf("sweep: unknown subcommand %q (want run, worker, status or merge)", args[0])
	}
}

// sweepCampaign loads the campaign named by -spec or -scenario, with
// -shards and -backend applied before the digest is computed so every
// process sharing the spec file agrees on the layout.
func sweepCampaign(specPath, scenarioPath, backend string, shards int) (*sweep.Campaign, error) {
	var spec *api.SweepSpec
	switch {
	case specPath != "" && scenarioPath != "":
		return nil, fmt.Errorf("sweep: -spec and -scenario are mutually exclusive")
	case specPath != "":
		f, err := os.Open(specPath)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		defer f.Close()
		spec, err = api.DecodeSweepSpec(f)
		if err != nil {
			return nil, err
		}
	case scenarioPath != "":
		f, err := os.Open(scenarioPath)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		defer f.Close()
		ss, err := api.DecodeScenarioSpec(f)
		if err != nil {
			return nil, err
		}
		spec = sweep.WrapScenario(ss, 0)
	default:
		return nil, fmt.Errorf("sweep: -spec or -scenario is required")
	}
	if shards > 0 {
		spec.Shards = shards
	}
	if backend != "" {
		spec.Backend = backend
	}
	return sweep.Load(spec, nil)
}

func sweepRun(args []string) error {
	fs := flag.NewFlagSet("sweep run", flag.ContinueOnError)
	var (
		specPath     = fs.String("spec", "", "sweep spec file (scenario or grid campaign)")
		scenarioPath = fs.String("scenario", "", "scenario spec file to run as a campaign")
		shards       = fs.Int("shards", 0, "shard count (overrides the spec; 0 = spec or default)")
		workers      = fs.Int("shard-workers", 1, "concurrent shard workers")
		outDir       = fs.String("out-dir", "", "shard directory (default: a temporary directory)")
		out          = fs.String("out", "", "merged campaign file (default: <out-dir>/campaign.jsonl)")
		resume       = fs.Bool("resume", false, "skip shards already valid in -out-dir, re-run the rest")
		remote       = fs.String("remote", "", "comma-separated simd base URLs to run shards on")
		subprocess   = fs.Bool("subprocess", false, "run each shard in a spawned testsuite worker process")
		retries      = fs.Int("retries", 0, "per-shard retry budget before the shard counts as failed")
		backoff      = fs.Duration("backoff", 100*time.Millisecond, "base backoff between shard retries")
		maxFailures  = fs.Int("max-failures", 1, "failed shards tolerated before aborting the pass")
		backend      = fs.String("backend", "", "simulator backend override for the whole campaign")
		progress     = fs.String("progress", "", "serve live progress on this address (/progressz; /debug/vars has Go's memstats)")
		shardTimeout = fs.Duration("shard-timeout", 0, "per-attempt deadline for one shard (0 = none)")
		quiet        = fs.Bool("q", false, "suppress per-shard progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *remote != "" && *subprocess {
		return fmt.Errorf("sweep: -remote and -subprocess are mutually exclusive")
	}
	c, err := sweepCampaign(*specPath, *scenarioPath, *backend, *shards)
	if err != nil {
		return err
	}
	dir := *outDir
	if dir == "" {
		if *resume {
			return fmt.Errorf("sweep: -resume needs -out-dir (the shard directory to resume)")
		}
		dir, err = os.MkdirTemp("", "sweep-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if *out == "" {
			// The shard dir is transient; keep the merged campaign.
			*out = c.Spec.Name + ".jsonl"
		}
	}

	opts := sweep.Options{
		Workers:      *workers,
		OutDir:       dir,
		Out:          *out,
		Resume:       *resume,
		Retries:      *retries,
		Backoff:      *backoff,
		MaxFailures:  *maxFailures,
		ShardTimeout: *shardTimeout,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}
	if *progress != "" {
		tracker, srv, err := serveProgress(*progress)
		if err != nil {
			return err
		}
		defer srv.Close()
		opts.OnProgress = tracker.Update
	}
	switch {
	case *remote != "":
		var clients []*simd.Client
		for _, u := range strings.Split(*remote, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			clients = append(clients, simd.NewClient(u, nil))
		}
		if len(clients) == 0 {
			return fmt.Errorf("sweep: -remote lists no server URLs")
		}
		// Each server is its own endpoint: independently health-tracked,
		// quarantined and hedged against, with -shard-workers concurrent
		// shards apiece.
		opts.Endpoints = simd.Endpoints(clients, *workers)
	case *subprocess:
		self, err := os.Executable()
		if err != nil {
			return fmt.Errorf("sweep: locating own binary for -subprocess: %w", err)
		}
		opts.Worker = &sweep.ProcessWorker{
			Argv: func(c *sweep.Campaign, sh sweep.Shard, path string) []string {
				return []string{self, "sweep", "worker",
					"-spec", sweep.SpecPath(dir),
					"-shard", strconv.Itoa(sh.Index),
					"-shard-out", path,
				}
			},
		}
	}

	res, err := sweep.Run(context.Background(), c, opts)
	if res != nil {
		reportSweep(os.Stderr, res)
	}
	if err != nil {
		return err
	}
	fmt.Println(res.Out)
	return nil
}

// sweepWorker executes exactly one shard to a file — the subprocess
// side of -subprocess, and a building block for running shards of one
// campaign by hand across machines. Fault injection from SWEEP_FAULT
// applies here (and only here): the chaos harness kills and truncates
// worker processes, never the coordinator.
func sweepWorker(args []string) error {
	fs := flag.NewFlagSet("sweep worker", flag.ContinueOnError)
	var (
		specPath = fs.String("spec", "", "campaign spec file (the coordinator's <out-dir>/campaign.json)")
		shard    = fs.Int("shard", -1, "shard index to execute")
		shardOut = fs.String("shard-out", "", "shard file to write")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *specPath == "" || *shardOut == "" || *shard < 0 {
		return fmt.Errorf("sweep: worker needs -spec, -shard and -shard-out")
	}
	c, err := sweep.LoadFile(*specPath, nil)
	if err != nil {
		return err
	}
	sh, err := c.ShardAt(*shard)
	if err != nil {
		return err
	}
	inj, err := sweep.FaultsFromEnv()
	if err != nil {
		return err
	}
	if inj != nil {
		inj.Exit = os.Exit
	}
	return sweep.ExecuteShardFile(context.Background(), c, sh, *shardOut, inj)
}

// serveProgress exposes a live coordinator over HTTP: /progressz
// serves the latest sweep.Progress snapshot as JSON (503 until the
// first one exists) and /debug/vars the process expvars (Go's memstats
// and command line).
func serveProgress(addr string) (*sweep.ProgressTracker, *http.Server, error) {
	tracker := &sweep.ProgressTracker{}
	mux := http.NewServeMux()
	mux.Handle("/progressz", tracker.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: -progress: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "sweep: serving progress on http://%s/progressz\n", ln.Addr())
	return tracker, srv, nil
}

// followProgress polls a coordinator's /progressz until the campaign
// finishes, printing one status line per poll.
func followProgress(base string, interval time.Duration) error {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := strings.TrimRight(base, "/") + "/progressz"
	seen := false
	for {
		resp, err := http.Get(url)
		if err != nil {
			if seen {
				// The coordinator served snapshots and is now gone: the
				// pass ended (its -progress server dies with the process).
				fmt.Println("coordinator exited; pass ended")
				return nil
			}
			return fmt.Errorf("sweep: %w", err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			fmt.Println("waiting for the first snapshot...")
			time.Sleep(interval)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("sweep: %s: HTTP %d", url, resp.StatusCode)
		}
		var p sweep.Progress
		err = json.NewDecoder(resp.Body).Decode(&p)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("sweep: decoding %s: %w", url, err)
		}
		line := fmt.Sprintf("%s: %d/%d shards (%d running, %d pending, %d failed)  cases %d/%d",
			p.Campaign, p.Done, p.Shards, p.Running, p.Pending, p.Failed, p.CasesDone, p.CasesTotal)
		if p.Hedges+p.Steals+p.Requeues+p.Fallbacks > 0 {
			line += fmt.Sprintf("  hedges=%d steals=%d requeues=%d fallbacks=%d",
				p.Hedges, p.Steals, p.Requeues, p.Fallbacks)
		}
		if p.EtaNS > 0 && p.Done+p.Failed < p.Shards {
			line += "  eta=" + time.Duration(p.EtaNS).Round(100*time.Millisecond).String()
		}
		fmt.Println(line)
		seen = true
		if p.Done+p.Failed >= p.Shards {
			return nil
		}
		time.Sleep(interval)
	}
}

// sweepStatus classifies every shard file in -out-dir against the
// campaign spec stored there: valid shards survive a resume, the rest
// re-run. With -follow it instead polls a live coordinator started
// with -progress and streams its view of the pass.
func sweepStatus(args []string) error {
	fs := flag.NewFlagSet("sweep status", flag.ContinueOnError)
	var (
		outDir   = fs.String("out-dir", "", "shard directory to inspect")
		follow   = fs.Bool("follow", false, "poll a live coordinator's /progressz until the pass ends")
		url      = fs.String("url", "", "coordinator progress address for -follow, e.g. http://host:8090")
		interval = fs.Duration("interval", time.Second, "poll interval for -follow")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow {
		if *url == "" {
			return fmt.Errorf("sweep: status -follow needs -url (the coordinator's -progress address)")
		}
		return followProgress(*url, *interval)
	}
	if *outDir == "" {
		return fmt.Errorf("sweep: status needs -out-dir")
	}
	c, err := sweep.LoadFile(sweep.SpecPath(*outDir), nil)
	if err != nil {
		return err
	}
	valid := 0
	for _, sh := range c.Shards() {
		info, err := sweep.InspectShard(sweep.ShardPath(*outDir, sh.Index), c.ShardHeader(sh))
		if err != nil {
			return err
		}
		line := fmt.Sprintf("shard %4d  cases [%d,%d)  %s", sh.Index, sh.From, sh.To, info.State)
		if info.State == sweep.StateValid {
			valid++
		} else if info.Reason != "" {
			line += "  (" + info.Reason + ")"
		}
		fmt.Println(line)
	}
	fmt.Printf("%d/%d shards valid (campaign %s, digest %s)\n", valid, c.Spec.Shards, c.Spec.Name, c.Digest)
	return nil
}

// sweepMerge re-validates and merges an out-dir whose shards were all
// produced already — by earlier passes, by hand-run workers, or copied
// from other hosts. Nothing executes; any non-valid shard aborts.
func sweepMerge(args []string) error {
	fs := flag.NewFlagSet("sweep merge", flag.ContinueOnError)
	var (
		outDir = fs.String("out-dir", "", "shard directory to merge")
		out    = fs.String("out", "", "merged campaign file (default: <out-dir>/campaign.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outDir == "" {
		return fmt.Errorf("sweep: merge needs -out-dir")
	}
	c, err := sweep.LoadFile(sweep.SpecPath(*outDir), nil)
	if err != nil {
		return err
	}
	if err := sweep.MergeDir(c, *outDir, *out); err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = sweep.MergedPath(*outDir)
	}
	fmt.Println(dst)
	return nil
}

// reportSweep prints the per-shard outcome table, campaign totals,
// and — when the dispatch layer had to intervene — its counters and
// the health of every endpoint that ended up degraded.
func reportSweep(w io.Writer, res *sweep.Result) {
	for _, st := range res.Shards {
		line := fmt.Sprintf("shard %4d  %-7s  worker=%s attempts=%d", st.Shard, st.State, st.Worker, st.Attempts)
		if st.Endpoint != "" && st.Endpoint != st.Worker {
			line += "  endpoint=" + st.Endpoint
		}
		if st.HedgeWon {
			line += "  hedged"
		}
		if st.Error != "" {
			line += "  error=" + st.Error
		}
		fmt.Fprintln(w, line)
	}
	s := res.Stats
	fmt.Fprintf(w, "sweep %s: %d executed, %d skipped, %d failed, %d retried; %d cases in %v\n",
		s.Campaign, s.Executed, s.Skipped, s.Failed, s.Retried, s.CasesExecuted,
		time.Duration(s.WallNS).Round(time.Millisecond))
	if s.Hedges+s.Steals+s.Requeues+s.Fallbacks > 0 {
		fmt.Fprintf(w, "dispatch: %d hedges (%d won), %d steals, %d requeues, %d fallbacks\n",
			s.Hedges, s.HedgesWon, s.Steals, s.Requeues, s.Fallbacks)
	}
	for _, wh := range s.WorkerHealth {
		if wh.State != "healthy" || wh.Failures > 0 {
			fmt.Fprintf(w, "worker %s: %s (%d ok, %d failed, ewma %v)\n",
				wh.Name, wh.State, wh.Successes, wh.Failures,
				time.Duration(wh.LatencyEWMANS).Round(time.Millisecond))
		}
	}
}
