package sweep_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sweep"
)

const helperEnv = "SWEEP_TEST_HELPER"

// TestHelperProcess is not a test: re-invoked by the process-worker
// tests as a subprocess, it plays the `testsuite sweep worker` role —
// load the campaign spec, execute one shard into a file, honor the
// SWEEP_FAULT env (an injected kill really exits the process here).
func TestHelperProcess(t *testing.T) {
	if os.Getenv(helperEnv) != "1" {
		return
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	if len(args) != 3 {
		fmt.Fprintf(os.Stderr, "helper: want specPath shard outPath, got %v\n", args)
		os.Exit(2)
	}
	c, err := sweep.LoadFile(args[0], nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	idx, err := strconv.Atoi(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sh, err := c.ShardAt(idx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	inj, err := sweep.FaultsFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	inj.Exit = os.Exit
	if err := sweep.ExecuteShardFile(context.Background(), c, sh, args[2], inj); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperWorker spawns this test binary as the shard worker subprocess.
func helperWorker(dir string) *sweep.ProcessWorker {
	return &sweep.ProcessWorker{
		Argv: func(c *sweep.Campaign, sh sweep.Shard, path string) []string {
			exe, err := os.Executable()
			if err != nil {
				exe = os.Args[0]
			}
			return []string{exe, "-test.run=TestHelperProcess", "--", sweep.SpecPath(dir), strconv.Itoa(sh.Index), path}
		},
	}
}

// TestProcessWorkerCampaign runs a full campaign on subprocess workers
// and pins the merged bytes against the single-process reference.
func TestProcessWorkerCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	spec := scenarioSpec(31, 6)
	want := singleProcessBytes(t, spec)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	dir := t.TempDir()
	t.Setenv(helperEnv, "1")
	res := runCoordinator(t, c, sweep.Options{Workers: 2, OutDir: dir, Worker: helperWorker(dir)})
	if got := readOut(t, res); !bytes.Equal(got, want) {
		t.Fatal("subprocess-worker campaign differs from single-process run")
	}
	if res.Stats.CasesExecuted != int64(c.Cases()) {
		t.Errorf("stats count %d cases executed, want the campaign's %d", res.Stats.CasesExecuted, c.Cases())
	}
}

// TestProcessWorkerKilledMidShard is the real multi-process crash: the
// SWEEP_FAULT env makes the subprocess for shard 1 exit mid-shard with
// FaultExitCode, leaving a torn file. The pass fails, the resume pass
// (fault env cleared) completes it, and the merged bytes match the
// uninterrupted run.
func TestProcessWorkerKilledMidShard(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	spec := scenarioSpec(32, 6)
	want := singleProcessBytes(t, spec)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	dir := t.TempDir()
	t.Setenv(helperEnv, "1")
	t.Setenv(sweep.EnvFault, "kill:1")

	res1, err := sweep.Run(context.Background(), c, sweep.Options{
		Workers: 1, // pin the schedule: shard 0 completes before shard 1 dies
		OutDir:  dir,
		Worker:  helperWorker(dir),
	})
	if err == nil {
		t.Fatal("pass with killed subprocess succeeded")
	}
	if !strings.Contains(err.Error(), "resume") {
		t.Fatalf("error does not point at resume: %v", err)
	}
	failed := res1.Shards[1]
	if failed.State == sweep.StateValid || !strings.Contains(failed.Error, fmt.Sprint(sweep.FaultExitCode)) {
		t.Fatalf("shard 1 stats %+v; want failure with exit status %d", failed, sweep.FaultExitCode)
	}

	os.Unsetenv(sweep.EnvFault)
	res2, err := sweep.Run(context.Background(), c, sweep.Options{
		Workers: 2,
		OutDir:  dir,
		Resume:  true,
		Worker:  helperWorker(dir),
	})
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	if got := readOut(t, res2); !bytes.Equal(got, want) {
		t.Fatal("resumed multi-process campaign differs from uninterrupted run")
	}
	// The killed worker cost only its in-flight shard: shard 0 was
	// completed by the first pass and resumed, not re-executed.
	if !res2.Shards[0].Skipped {
		t.Error("shard 0 was re-executed on resume despite a valid footer")
	}
	if want := int64(c.Cases()) - validCasesIn(res1); res2.Stats.CasesExecuted != want {
		t.Errorf("resume executed %d cases, want %d", res2.Stats.CasesExecuted, want)
	}
}

// TestProcessWorkerCommandFailure pins the worker error path: a
// subprocess that cannot even start surfaces as a shard failure with
// stderr context, not a hang or a silent torn file.
func TestProcessWorkerCommandFailure(t *testing.T) {
	w := &sweep.ProcessWorker{Argv: func(c *sweep.Campaign, sh sweep.Shard, path string) []string {
		return []string{"/nonexistent-sweep-worker-binary"}
	}}
	c := mustLoad(t, sweep.WrapScenario(scenarioSpec(33, 2), 2))
	err := w.RunShard(context.Background(), c, c.Shards()[0], sweep.ShardPath(t.TempDir(), 0))
	if err == nil {
		t.Fatal("nonexistent worker binary reported success")
	}
	if !strings.Contains(err.Error(), "shard 0") {
		t.Errorf("error %v lacks shard context", err)
	}
}
