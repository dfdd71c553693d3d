package sweep_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

func intp(n int) *int { return &n }

// scenarioSpec is the shared small-but-mixed campaign: two families,
// drawn parameters, deterministic arrivals.
func scenarioSpec(seed int64, cases int) *api.ScenarioSpec {
	return &api.ScenarioSpec{
		Name:  "camp",
		Seed:  seed,
		Cases: cases,
		Mix: []api.MixEntry{
			{Family: "hamming", Params: map[string]api.Dist{"words": {Choice: []int{4, 8}}}},
			{Family: "fir", Weight: 0.5, Params: map[string]api.Dist{"n": {Const: intp(16)}, "taps": {Const: intp(4)}}},
		},
		Arrival: &api.ArrivalSpec{Kind: api.ArrivalDeterministic, IntervalNS: 1000},
	}
}

// singleProcessBytes is the uninterrupted reference: the exact bytes a
// plain scenario.Run of the campaign's scenario writes.
func singleProcessBytes(t *testing.T, spec *api.ScenarioSpec) []byte {
	t.Helper()
	sc, err := scenario.Load(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sc.Run(context.Background(), scenario.Options{}, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustLoad(t *testing.T, spec *api.SweepSpec) *sweep.Campaign {
	t.Helper()
	c, err := sweep.Load(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func runCoordinator(t *testing.T, c *sweep.Campaign, opts sweep.Options) *sweep.Result {
	t.Helper()
	res, err := sweep.Run(context.Background(), c, opts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return res
}

func readOut(t *testing.T, res *sweep.Result) []byte {
	t.Helper()
	b, err := os.ReadFile(res.Out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergedByteIdenticalAcrossWorkers pins the acceptance criterion:
// the merged campaign file equals a single-process scenario run byte
// for byte, for every worker count in {1, 2, 4, 8} and for two shard
// layouts.
func TestMergedByteIdenticalAcrossWorkers(t *testing.T) {
	spec := scenarioSpec(11, 6)
	want := singleProcessBytes(t, spec)
	for _, shards := range []int{3, 6} {
		c := mustLoad(t, sweep.WrapScenario(spec, shards))
		for _, workers := range []int{1, 2, 4, 8} {
			res := runCoordinator(t, c, sweep.Options{
				Workers: workers,
				OutDir:  t.TempDir(),
			})
			got := readOut(t, res)
			if !bytes.Equal(got, want) {
				t.Fatalf("shards=%d workers=%d: merged campaign differs from single-process run:\n%s\nvs\n%s",
					shards, workers, got, want)
			}
			if res.Stats.CasesExecuted != int64(spec.Cases) {
				t.Errorf("shards=%d workers=%d: executed %d cases, want %d",
					shards, workers, res.Stats.CasesExecuted, spec.Cases)
			}
		}
	}
}

// TestMergedCampaignReplays closes the loop: the merged file is a
// plain scenario trace, so the replay machinery reproduces it
// bit-identically.
func TestMergedCampaignReplays(t *testing.T) {
	spec := scenarioSpec(3, 4)
	c := mustLoad(t, sweep.WrapScenario(spec, 2))
	res := runCoordinator(t, c, sweep.Options{Workers: 2, OutDir: t.TempDir()})
	tr, err := scenario.ReadTraceFile(res.Out)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Replay(context.Background(), tr, scenario.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := scenario.CompareTraces(tr.Cases, rep.Cases, true); len(diffs) > 0 {
		t.Fatalf("merged campaign does not replay bit-identically: %v", diffs)
	}
}

// TestMergeDirMatchesCoordinator pins the merge-only pass: over a
// finished out-dir it writes the coordinator's merged bytes, and a
// torn shard aborts it, named with its state, leaving no output file.
func TestMergeDirMatchesCoordinator(t *testing.T) {
	c := mustLoad(t, sweep.WrapScenario(scenarioSpec(5, 6), 3))
	dir := t.TempDir()
	res := runCoordinator(t, c, sweep.Options{Workers: 2, OutDir: dir})
	out := filepath.Join(t.TempDir(), "remerged.jsonl")
	if err := sweep.MergeDir(c, dir, out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, readOut(t, res)) {
		t.Fatal("merge-only pass differs from the coordinator's merged file")
	}

	path := sweep.ShardPath(dir, 1)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.jsonl")
	err = sweep.MergeDir(c, dir, torn)
	if err == nil || !strings.Contains(err.Error(), "shard 1 is torn") {
		t.Fatalf("merge over a torn shard: err=%v, want it to name shard 1 as torn", err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("merge over a torn shard left an output file (stat: %v)", err)
	}
}

// TestGridCampaign exercises the preset x seed-range mode: the layout
// covers the grid, output is identical across worker counts, and the
// merged file is a well-formed green trace.
func TestGridCampaign(t *testing.T) {
	spec := &api.SweepSpec{
		Name:   "grid",
		Shards: 3,
		Grid: &api.GridSpec{
			Workloads: []string{"hamming,words=4", "fir,n=16,taps=4"},
			SeedFrom:  10,
			SeedTo:    13,
		},
	}
	c := mustLoad(t, spec)
	if got := c.Cases(); got != 6 {
		t.Fatalf("grid cases = %d, want 6", got)
	}
	var want []byte
	for _, workers := range []int{1, 4} {
		res := runCoordinator(t, c, sweep.Options{Workers: workers, OutDir: t.TempDir()})
		got := readOut(t, res)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("grid campaign differs across worker counts")
		}
	}
	tr, err := scenario.ReadTrace(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Cases) != 6 || tr.Summary == nil || !tr.Summary.OK {
		t.Fatalf("grid campaign trace malformed: %d cases, summary %+v", len(tr.Cases), tr.Summary)
	}
	// Workload-major order with the seed swept fastest.
	if tr.Cases[0].Family != "hamming" || tr.Cases[3].Family != "fir" {
		t.Errorf("grid order wrong: case 0 %s, case 3 %s", tr.Cases[0].Family, tr.Cases[3].Family)
	}
}

func TestShardLayout(t *testing.T) {
	c := mustLoad(t, sweep.WrapScenario(scenarioSpec(1, 7), 3))
	shards := c.Shards()
	if len(shards) != 3 {
		t.Fatalf("layout has %d shards, want 3", len(shards))
	}
	next := 0
	for i, sh := range shards {
		if sh.Index != i || sh.Count != 3 || sh.From != next || sh.To <= sh.From {
			t.Fatalf("shard %d malformed: %+v", i, sh)
		}
		if size := sh.To - sh.From; size != 3 && size != 2 {
			t.Fatalf("shard %d unbalanced: %+v", i, sh)
		}
		next = sh.To
	}
	if next != 7 {
		t.Fatalf("layout covers %d cases, want 7", next)
	}
	// More shards than cases clamps to one case per shard.
	c2 := mustLoad(t, sweep.WrapScenario(scenarioSpec(1, 2), 64))
	if c2.Spec.Shards != 2 {
		t.Errorf("64 shards over 2 cases normalized to %d, want 2", c2.Spec.Shards)
	}
}

func TestCampaignDigestSeparatesLayouts(t *testing.T) {
	a := mustLoad(t, sweep.WrapScenario(scenarioSpec(1, 6), 2))
	b := mustLoad(t, sweep.WrapScenario(scenarioSpec(1, 6), 3))
	if a.Digest == b.Digest {
		t.Error("different shard layouts share a campaign digest")
	}
	c := mustLoad(t, sweep.WrapScenario(scenarioSpec(2, 6), 2))
	if a.Digest == c.Digest {
		t.Error("different seeds share a campaign digest")
	}
	d := mustLoad(t, sweep.WrapScenario(scenarioSpec(1, 6), 2))
	if a.Digest != d.Digest {
		t.Error("same spec produced different digests")
	}
	e := mustLoad(t, &api.SweepSpec{Name: "camp", Shards: 2, Backend: "compiled", Scenario: scenarioSpec(1, 6)})
	if a.Digest == e.Digest {
		t.Error("different backends share a campaign digest")
	}
}

func TestResumeRefusesForeignOutDir(t *testing.T) {
	dir := t.TempDir()
	a := mustLoad(t, sweep.WrapScenario(scenarioSpec(1, 4), 2))
	runCoordinator(t, a, sweep.Options{OutDir: dir})
	b := mustLoad(t, sweep.WrapScenario(scenarioSpec(2, 4), 2))
	if _, err := sweep.Run(context.Background(), b, sweep.Options{OutDir: dir, Resume: true}); err == nil {
		t.Fatal("resume against an out dir holding a different campaign succeeded")
	}
}

// gridSpec is a hamming grid of the given case count and shard layout.
func gridSpec(cases, shards int) *api.SweepSpec {
	return &api.SweepSpec{Name: "grid", Shards: shards,
		Grid: &api.GridSpec{Workloads: []string{"hamming,words=8"}, SeedTo: cases}}
}

// TestShardAtAllocatesNothing: one shard's range is arithmetic, not a
// slice of the whole layout, even on the largest layout Load accepts.
func TestShardAtAllocatesNothing(t *testing.T) {
	c := mustLoad(t, gridSpec(scenario.MaxCases, scenario.MaxCases))
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := c.ShardAt(77_777); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("ShardAt allocates %v objects per call, want 0", avg)
	}
	// 1000 cases over 7 shards: six of 143, then one of 142.
	c = mustLoad(t, gridSpec(1000, 7))
	for i, want := range map[int]sweep.Shard{
		0: {Index: 0, Count: 7, From: 0, To: 143},
		5: {Index: 5, Count: 7, From: 715, To: 858},
		6: {Index: 6, Count: 7, From: 858, To: 1000},
	} {
		if got, err := c.ShardAt(i); err != nil || got != want {
			t.Fatalf("ShardAt(%d) = %+v, %v; want %+v", i, got, err, want)
		}
	}
}

func TestGridLoadRejections(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec *api.SweepSpec
	}{
		{"unknown family", &api.SweepSpec{Name: "x", Grid: &api.GridSpec{Workloads: []string{"nope"}, SeedTo: 1}}},
		{"pinned seed param", &api.SweepSpec{Name: "x", Grid: &api.GridSpec{Workloads: []string{"hamming,seed=3"}, SeedTo: 1}}},
		{"seed outside schema", &api.SweepSpec{Name: "x", Grid: &api.GridSpec{Workloads: []string{"hamming"}, SeedFrom: 1<<30 - 5, SeedTo: 1<<30 + 5}}},
		{"unknown backend", &api.SweepSpec{Name: "x", Backend: "warp", Grid: &api.GridSpec{Workloads: []string{"hamming"}, SeedTo: 1}}},
		{"over the case cap", gridSpec(scenario.MaxCases+1, 0)},
	} {
		if _, err := sweep.Load(tc.spec, nil); err == nil {
			t.Errorf("%s: Load accepted bad spec", tc.name)
		}
	}
}
