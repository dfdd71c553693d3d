package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestShortRunsReportEveryMetric runs every workload briefly, untraced
// and traced, and checks the result shape, that no op failed, and the
// exact-count guard: both runs of a seed count the same simulated work.
func TestShortRunsReportEveryMetric(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			plain, pmd, err := measure(ctx, w, 7, 200*time.Millisecond, false, out)
			if err != nil {
				t.Fatal(err)
			}
			traced, tmd, err := measure(ctx, w, 7, 200*time.Millisecond, true, out)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*result{plain, traced} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
			}
			checkMetrics(t, plain, endToEnd)
			checkMetrics(t, traced, perLayer)
			if pmd.PassCounts != tmd.PassCounts || pmd.PassCounts.Cycles == 0 {
				t.Errorf("pass counts: untraced %+v, traced %+v", pmd.PassCounts, tmd.PassCounts)
			}
			if got := plain.Metrics["sim_cycles_per_case"].Value; got != float64(pmd.PassCounts.Cycles)/float64(pmd.PassCounts.Cases) {
				t.Errorf("sim_cycles_per_case %v is not the pass's cycles per case %+v", got, pmd.PassCounts)
			}
			for _, name := range w.unobserved {
				if unitOf(perLayer, name) == "" {
					t.Errorf("unobserved metric %q is not a per-layer metric", name)
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, r *result, want []metricSpec) {
	t.Helper()
	if len(r.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := r.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", m.name, got, ok, m.unit)
		}
	}
}

// TestSeedDrivesInputs: one seed always generates the same inputs and
// another seed different ones.
func TestSeedDrivesInputs(t *testing.T) {
	ctx := context.Background()
	build := func(seed uint64) string {
		b, err := setupSuite(ctx, &env{seed: seed, dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(b.(*suiteBench).cases)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	if a, b := build(3), build(3); a != b {
		t.Error("seed 3 generated two different suites")
	}
	if a, b := build(3), build(4); a == b {
		t.Error("seeds 3 and 4 generated the same suite")
	}
}

// TestCorruptedReferenceFails: an op whose output disagrees with a
// corrupted reference counts as failed, never as a pass.
func TestCorruptedReferenceFails(t *testing.T) {
	ctx := context.Background()
	e := &env{seed: 5, dir: t.TempDir()}

	t.Run("gang lane word", func(t *testing.T) {
		b, err := setupGang(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		g := b.(*gangBench).designs[0]
		for name, words := range g.expected[17] {
			words[len(words)/2] ^= 1
			t.Logf("flipped %s[%d] of lane 17 of %s", name, len(words)/2, g.name)
			break
		}
		rec := &recorder{}
		if _, err := b.pass(ctx, rec, nil); err != nil {
			t.Fatal(err)
		}
		if rec.failed != 1 || rec.attempted != len(b.(*gangBench).designs) {
			t.Errorf("attempted %d failed %d, want the one corrupted round failed", rec.attempted, rec.failed)
		}
	})

	t.Run("campaign digest", func(t *testing.T) {
		b, err := setupCampaign(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		b.(*campaignBench).refDigest[0] ^= 1
		rec := &recorder{}
		if _, err := b.pass(ctx, rec, nil); err != nil {
			t.Fatal(err)
		}
		if rec.failed != campaignShards || rec.attempted != campaignShards || len(rec.latencies) != 0 {
			t.Errorf("attempted %d failed %d ok %d, want every shard failed", rec.attempted, rec.failed, len(rec.latencies))
		}
	})

	t.Run("suite pinned output", func(t *testing.T) {
		b, err := setupSuite(ctx, e)
		if err != nil {
			t.Fatal(err)
		}
		sb := b.(*suiteBench)
		for name, words := range sb.cases[0].Expected {
			words[0] ^= 1
			t.Logf("flipped %s[0] of %s", name, sb.cases[0].Name)
			break
		}
		rec := &recorder{}
		if _, err := b.pass(ctx, rec, nil); err != nil {
			t.Fatal(err)
		}
		if rec.failed != 1 || rec.attempted != len(sb.cases) {
			t.Errorf("attempted %d failed %d, want the one corrupted case failed", rec.attempted, rec.failed)
		}
	})
}

// TestOpSelfTimesSumToSpan: in a traced pass of every workload, the
// self times that per-layer metrics report sum to each op's span within
// 5%. Where no metric reports the op span's own self time (suite-fresh's
// core.RunCase), its child spans must cover the op.
func TestOpSelfTimesSumToSpan(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setup(ctx, &env{seed: 9, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			tr := newTracer()
			rec := &recorder{}
			if _, err := b.pass(ctx, rec, tr); err != nil {
				t.Fatal(err)
			}
			if w.opSelf != "" && unitOf(perLayer, w.opSelf) == "" {
				t.Fatalf("opSelf %q is not a per-layer metric", w.opSelf)
			}
			ratios := tr.opCoverage(w.opSelf != "")
			if len(ratios) != len(rec.latencies) {
				t.Fatalf("%d op spans for %d ops", len(ratios), len(rec.latencies))
			}
			for i, r := range ratios {
				if r < 0.95 || r > 1.05 {
					t.Errorf("op %d: reported self times sum to %.3f of the op span", i, r)
				}
			}
			// Every op has a layer below it except a shard, whose
			// executor takes no observers.
			if kids := tr.children(); w.name != "campaign-sharded" {
				for i := range tr.spans {
					if s := &tr.spans[i]; s.Root && len(kids[s.ID]) == 0 {
						t.Errorf("op span %s has no child spans", s.Name)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json to the workloads and
// metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloadList {
		want = append(want, w.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(v, 0.5); got != 5.5 {
		t.Errorf("p50 = %v", got)
	}
	if got := quantile(v, 0.9); got < 9.09 || got > 9.11 {
		t.Errorf("p90 = %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := &span{ID: 1, Start: 0, End: 100}
	kids := []*span{
		{Start: 10, End: 30},
		{Start: 20, End: 40},  // overlaps the first: the union counts once
		{Start: 90, End: 120}, // clipped to the parent
	}
	if got := self(parent, kids); got != 100-30-10 {
		t.Errorf("self = %v, want 60", got)
	}
}

// TestHostKernel: a kernel sample allocates nothing, so it neither
// moves allocs_per_case nor depends on the program's heap, and the
// scale is 1 on the reference host and halves the times of a host that
// runs the kernel at half its speed.
func TestHostKernel(t *testing.T) {
	k := newHostKernel()
	if n := testing.AllocsPerRun(3, k.run); n != 0 {
		t.Errorf("kernel run allocates %v times", n)
	}
	if ms := k.sample(); ms <= 0 {
		t.Errorf("sample = %v ms", ms)
	}
	if f := hostScale(hostRefMS, hostRefMS); f != 1 {
		t.Errorf("scale on the reference host = %v", f)
	}
	if f := hostScale(1.5*hostRefMS, 2.5*hostRefMS); f != 0.5 {
		t.Errorf("scale on a host at half speed = %v", f)
	}
}
