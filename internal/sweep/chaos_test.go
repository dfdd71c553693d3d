package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/sweep"
)

// validCasesIn counts the cases of every shard the pass left valid —
// what a resume pass must NOT re-execute.
func validCasesIn(res *sweep.Result) int64 {
	var n int64
	for _, st := range res.Shards {
		if st.State == sweep.StateValid {
			n += int64(st.To - st.From)
		}
	}
	return n
}

// resumeAfter runs the chaos pass (expected to fail), then a clean
// resume pass, asserting the resume produced the reference bytes and
// executed only the cases the chaos pass lost.
func resumeAfter(t *testing.T, c *sweep.Campaign, dir string, chaos sweep.Options, want []byte) {
	t.Helper()
	chaos.OutDir = dir
	res1, err := sweep.Run(context.Background(), c, chaos)
	if err == nil {
		t.Fatal("chaos pass succeeded; expected a partial failure")
	}
	if !strings.Contains(err.Error(), "resume") {
		t.Fatalf("chaos pass error does not point at resume: %v", err)
	}
	if _, err := os.Stat(res1.Out); !os.IsNotExist(err) {
		t.Fatalf("failed pass left a merged campaign file: %v", err)
	}

	res2, err := sweep.Run(context.Background(), c, sweep.Options{OutDir: dir, Resume: true})
	if err != nil {
		t.Fatalf("resume pass: %v", err)
	}
	got := readOut(t, res2)
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed campaign differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// Resume economics: a killed worker never costs more than its
	// in-flight shard — every shard the chaos pass completed is skipped,
	// so the resume executes exactly the remainder.
	wantExec := int64(c.Cases()) - validCasesIn(res1)
	if res2.Stats.CasesExecuted != wantExec {
		t.Errorf("resume executed %d cases, want %d (chaos pass completed %d)",
			res2.Stats.CasesExecuted, wantExec, validCasesIn(res1))
	}
	if res2.Stats.Skipped == 0 {
		t.Error("resume pass skipped no shards; completed shards were re-executed")
	}
}

// TestChaosKilledWorkerResume kills an in-process worker mid-shard
// (torn file, no footer) with no retry budget; the resume pass redoes
// only the lost work and the merged bytes match the uninterrupted run.
func TestChaosKilledWorkerResume(t *testing.T) {
	spec := scenarioSpec(21, 6)
	want := singleProcessBytes(t, spec)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	inj := sweep.NewInjector()
	inj.Kill = 1
	// Workers: 1 pins the schedule: shard 0 completes, shard 1 dies
	// mid-shard, shard 2 is cancelled by the fail-fast budget.
	resumeAfter(t, c, t.TempDir(), sweep.Options{Workers: 1, Injector: inj}, want)
}

// TestChaosTruncatedShardResume truncates a completed shard file
// mid-case; validation classifies it torn, and resume makes the
// campaign whole.
func TestChaosTruncatedShardResume(t *testing.T) {
	spec := scenarioSpec(22, 6)
	want := singleProcessBytes(t, spec)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	inj := sweep.NewInjector()
	inj.Truncate = 2
	resumeAfter(t, c, t.TempDir(), sweep.Options{Workers: 2, Injector: inj}, want)
}

// TestChaosDuplicatedShardResume copies a completed shard over another
// shard's path after the workers finish; validation classifies the
// copy foreign (right campaign, wrong shard), and resume re-executes
// only that shard.
func TestChaosDuplicatedShardResume(t *testing.T) {
	spec := scenarioSpec(23, 6)
	want := singleProcessBytes(t, spec)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	inj := sweep.NewInjector()
	inj.Dup, inj.DupAt = 0, 2
	resumeAfter(t, c, t.TempDir(), sweep.Options{Workers: 2, Injector: inj}, want)
}

// TestRetryAbsorbsTransientKill gives the retry budget one attempt;
// the in-process kill fires once, so the retry completes the shard and
// the single pass already matches the reference.
func TestRetryAbsorbsTransientKill(t *testing.T) {
	spec := scenarioSpec(24, 6)
	want := singleProcessBytes(t, spec)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	inj := sweep.NewInjector()
	inj.Kill = 1
	res := runCoordinator(t, c, sweep.Options{
		Workers:  2,
		OutDir:   t.TempDir(),
		Injector: inj,
		Retries:  1,
		Backoff:  1, // nanoseconds — keep the test fast
	})
	if got := readOut(t, res); !bytes.Equal(got, want) {
		t.Fatal("retried campaign differs from uninterrupted run")
	}
	if res.Stats.Retried == 0 {
		t.Error("kill was injected but no retry was recorded")
	}
}

// TestKilledShardHoldsHalfItsCases pins what an injected kill leaves
// behind: the clean shard's header and first ⌊n/2⌋ case lines, byte
// for byte, and no footer — a file InspectShard classifies torn.
func TestKilledShardHoldsHalfItsCases(t *testing.T) {
	c := mustLoad(t, sweep.WrapScenario(scenarioSpec(29, 4), 1))
	sh := c.Shards()[0]
	var clean bytes.Buffer
	if err := sweep.ExecuteShard(context.Background(), c, sh, &clean, nil); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(clean.Bytes(), []byte("\n"))
	if len(lines) != 1+4+1+1 { // header, 4 cases, footer, "" after the last newline
		t.Fatalf("clean shard has %d lines, want header, 4 cases and footer", len(lines)-1)
	}

	inj := sweep.NewInjector()
	inj.Kill = sh.Index
	var killed bytes.Buffer
	if err := sweep.ExecuteShard(context.Background(), c, sh, &killed, inj); err == nil {
		t.Fatal("killed shard returned no error")
	}
	if want := bytes.Join(lines[:1+2], nil); !bytes.Equal(killed.Bytes(), want) {
		t.Fatalf("killed shard wrote\n%s\nwant the header and first 2 case lines\n%s", killed.Bytes(), want)
	}

	path := sweep.ShardPath(t.TempDir(), sh.Index)
	if err := os.WriteFile(path, killed.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := sweep.InspectShard(path, c.ShardHeader(sh))
	if err != nil || info.State != sweep.StateTorn {
		t.Errorf("killed shard classified %+v (%v), want torn", info, err)
	}
}

func TestParseFaults(t *testing.T) {
	inj, err := sweep.ParseFaults("kill:1,truncate:2,dup:0:3")
	if err != nil {
		t.Fatal(err)
	}
	if inj.Kill != 1 || inj.Truncate != 2 || inj.Dup != 0 || inj.DupAt != 3 {
		t.Errorf("parsed %+v", inj)
	}
	empty, err := sweep.ParseFaults("")
	if err != nil || empty.Kill != -1 || empty.Truncate != -1 || empty.Dup != -1 {
		t.Errorf("empty spec: %+v, %v", empty, err)
	}
	for _, bad := range []string{"kill", "kill:x", "kill:-1", "dup:1", "explode:3"} {
		if _, err := sweep.ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted bad spec", bad)
		}
	}
}

// TestInspectShardClassification pins every recovery classification:
// missing and torn files are resumable, a duplicated shard is foreign,
// a valid file is valid, and only a newer schema version is fatal.
func TestInspectShardClassification(t *testing.T) {
	c := mustLoad(t, sweep.WrapScenario(scenarioSpec(25, 4), 2))
	sh := c.Shards()[0]
	want := c.ShardHeader(sh)
	dir := t.TempDir()
	path := sweep.ShardPath(dir, 0)

	expect := func(label, state string) {
		t.Helper()
		info, err := sweep.InspectShard(path, want)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if info.State != state {
			t.Errorf("%s classified %s (%s), want %s", label, info.State, info.Reason, state)
		}
	}

	expect("no file", sweep.StateMissing)

	if err := sweep.ExecuteShardFile(context.Background(), c, sh, path, nil); err != nil {
		t.Fatal(err)
	}
	expect("clean execution", sweep.StateValid)
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	write := func(b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	write(nil)
	expect("empty file", sweep.StateTorn)

	lines := bytes.SplitAfter(valid, []byte("\n"))
	write(bytes.Join(lines[:len(lines)-2], nil))
	expect("missing footer", sweep.StateTorn)

	write(valid[:len(valid)-7])
	expect("footer cut mid-line", sweep.StateTorn)

	corrupt := bytes.Replace(valid, []byte(`"record":"case"`), []byte(`"record":"CASE"`), 1)
	write(corrupt)
	expect("corrupted case line", sweep.StateTorn)

	write([]byte("not json\n"))
	expect("garbage", sweep.StateTorn)

	// A different shard of the same campaign: foreign, not torn.
	sh1 := c.Shards()[1]
	if err := sweep.ExecuteShardFile(context.Background(), c, sh1, path, nil); err != nil {
		t.Fatal(err)
	}
	expect("duplicated other shard", sweep.StateForeign)

	// Same shard of a different campaign: foreign.
	c2 := mustLoad(t, sweep.WrapScenario(scenarioSpec(26, 4), 2))
	if err := sweep.ExecuteShardFile(context.Background(), c2, c2.Shards()[0], path, nil); err != nil {
		t.Fatal(err)
	}
	expect("other campaign", sweep.StateForeign)

	// A shard written by a newer schema version is the one fatal case:
	// re-executing would not fix it.
	newer := bytes.Replace(valid, []byte(`{"schema_version":`), []byte(`{"schema_version":9`), 1)
	write(newer)
	if _, err := sweep.InspectShard(path, want); err == nil {
		t.Error("newer-schema shard classified resumable; must be fatal")
	}

	write(valid)
	expect("restored valid file", sweep.StateValid)
}

// TestShardDigestsMatchMergedCases pins the footer digest property:
// each shard's digest equals the digest of the merged file's case
// lines for that shard's range.
func TestShardDigestsMatchMergedCases(t *testing.T) {
	spec := scenarioSpec(27, 6)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	dir := t.TempDir()
	res := runCoordinator(t, c, sweep.Options{Workers: 2, OutDir: dir})
	merged := bytes.Split(bytes.TrimSuffix(readOut(t, res), []byte("\n")), []byte("\n"))
	caseLines := merged[1 : len(merged)-1]
	for _, sh := range c.Shards() {
		data, err := os.ReadFile(sweep.ShardPath(dir, sh.Index))
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		var ftr api.ShardResult
		if err := json.Unmarshal(lines[len(lines)-1], &ftr); err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, line := range caseLines[sh.From:sh.To] {
			h.Write(line)
			h.Write([]byte{'\n'})
		}
		if got := fmt.Sprintf("%016x", h.Sum64()); got != ftr.Digest {
			t.Errorf("shard %d digest %s does not match merged case lines (%s)", sh.Index, ftr.Digest, got)
		}
	}
}
