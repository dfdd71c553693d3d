package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func fakeScenario(name string, events uint64, wall time.Duration) Scenario {
	return Scenario{
		Name:   name,
		Pinned: true,
		Prepare: func() (RunFunc, error) {
			return func() (Measure, error) {
				return Measure{Events: events, Cycles: 7, Wall: wall}, nil
			}, nil
		},
	}
}

func TestRunComputesThroughput(t *testing.T) {
	res, err := Run(fakeScenario("fake", 1000, 10*time.Millisecond), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "fake" || res.Reps != 3 || res.Events != 1000 || res.Cycles != 7 {
		t.Fatalf("result = %+v", res)
	}
	want := 1000 / (10 * time.Millisecond).Seconds()
	if res.EventsPerSec != want {
		t.Fatalf("events/sec = %f want %f", res.EventsPerSec, want)
	}
	if res.GoVersion == "" || res.CPUs <= 0 || res.UnixTime == 0 {
		t.Fatalf("host metadata missing: %+v", res)
	}
}

func TestRunRejectsEmptyMeasure(t *testing.T) {
	if _, err := Run(fakeScenario("empty", 0, time.Millisecond), 1); err == nil {
		t.Fatal("zero-event measure must error")
	}
}

func TestFileName(t *testing.T) {
	if got := FileName("kernel-rings"); got != "BENCH_kernel-rings.json" {
		t.Fatalf("got %q", got)
	}
	if got := FileName("we ird/na:me"); got != "BENCH_we-ird-na-me.json" {
		t.Fatalf("got %q", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res, err := Run(fakeScenario("round-trip", 500, 5*time.Millisecond), 1)
	if err != nil {
		t.Fatal(err)
	}
	path, err := Save(res, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "BENCH_round-trip.json") {
		t.Fatalf("path %q", path)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := loaded["round-trip"]
	if !ok {
		t.Fatalf("loaded = %v", loaded)
	}
	if got.EventsPerSec != res.EventsPerSec || got.Events != res.Events {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, res)
	}
}

func TestCompare(t *testing.T) {
	base := map[string]*Result{
		"a": {Name: "a", EventsPerSec: 1000},
		"b": {Name: "b", EventsPerSec: 1000},
		"c": {Name: "c", EventsPerSec: 1000},
	}
	cur := map[string]*Result{
		"a": {Name: "a", EventsPerSec: 800}, // within 25%
		"b": {Name: "b", EventsPerSec: 700}, // regressed
		// c missing entirely
	}
	regs := Compare(cur, base, 0.25)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v", regs)
	}
	if regs[0].Name != "b" || regs[1].Name != "c" {
		t.Fatalf("regressions = %v", regs)
	}
	if regs[0].Ratio >= 0.75 {
		t.Fatalf("ratio = %f", regs[0].Ratio)
	}
	if regs[1].Current != 0 {
		t.Fatalf("missing scenario must report zero throughput: %v", regs[1])
	}
	if got := Compare(base, base, 0.25); len(got) != 0 {
		t.Fatalf("identical runs must pass: %v", got)
	}
}

// TestScenarioNamesUnique guards the seam between the hand-rolled
// scenarios (kernel traffic, handcrafted design) and the
// registry-derived ones: the workload registry enforces preset-name
// uniqueness among families but cannot know bench's static names, and a
// duplicate would make Select ambiguous and silently overwrite
// BENCH_<name>.json files.
func TestScenarioNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Scenarios() {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
	}
}

func TestSelect(t *testing.T) {
	all := Scenarios()
	pinned, err := Select("pinned", all)
	if err != nil {
		t.Fatal(err)
	}
	if len(pinned) == 0 || len(pinned) > len(all) {
		t.Fatalf("pinned = %d of %d", len(pinned), len(all))
	}
	for _, sc := range pinned {
		if !sc.Pinned {
			t.Fatalf("%s not pinned", sc.Name)
		}
	}
	got, err := Select("kernel-rings,hamming-256", all)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "kernel-rings" || got[1].Name != "hamming-256" {
		t.Fatalf("select = %v", got)
	}
	if _, err := Select("nope", all); err == nil {
		t.Fatal("unknown scenario must error")
	}
}

// TestPinnedScenariosExecute runs every pinned scenario once with tiny
// durations to keep the registry executable — a scenario that breaks
// should fail here, not in the CI bench job.
func TestPinnedScenariosExecute(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	pinned, err := Select("pinned", Scenarios())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range pinned {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res, err := Run(sc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Events == 0 || res.EventsPerSec <= 0 {
				t.Fatalf("suspicious result: %+v", res)
			}
		})
	}
}

// TestScenariosPerBackend: the registry parameterizes over the
// simulator backends; an e2e scenario must prepare and execute on
// compiled, the results must carry the backend name for the
// per-backend baseline gate, and the cycle backend's registry has no
// raw kernel scenarios.
func TestScenariosPerBackend(t *testing.T) {
	scs, err := Select("hamming-256", ScenariosFor("compiled"))
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scs {
		if sc.Backend != "compiled" {
			t.Fatalf("%s: backend %q", sc.Name, sc.Backend)
		}
		res, err := Run(sc, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Backend != "compiled" || res.Events == 0 {
			t.Fatalf("%s: result %+v", sc.Name, res)
		}
	}
	if _, err := Select("kernel-fanout", ScenariosFor("compiled")); err == nil {
		t.Fatal("the compiled registry must not carry event-kernel scenarios")
	}
	if _, err := Select("kernel-fanout", ScenariosFor("no-such-backend")); err != nil {
		t.Fatal(err) // selection works; preparation reports the bad backend
	}
	bad := ScenariosFor("no-such-backend")
	if _, err := Run(bad[0], 1); err == nil {
		t.Fatal("unknown backend must surface at prepare time")
	}
}

func TestCompareRejectsBackendMismatch(t *testing.T) {
	base := map[string]*Result{"s": {Name: "s", Backend: "twolevel", EventsPerSec: 1000}}
	cur := map[string]*Result{"s": {Name: "s", Backend: "compiled", EventsPerSec: 1000}}
	regs := Compare(cur, base, 0.25)
	if len(regs) != 1 || regs[0].Mismatch == "" {
		t.Fatalf("regs=%v", regs)
	}
	if !strings.Contains(regs[0].String(), "baseline was recorded on") {
		t.Fatalf("message=%q", regs[0].String())
	}
	// Pre-split baselines without a backend field still compare.
	base["s"].Backend = ""
	if regs := Compare(cur, base, 0.25); len(regs) != 0 {
		t.Fatalf("legacy baseline must stay comparable: %v", regs)
	}
}

// TestCompareExactCounts: events, cycles and configs are deterministic,
// so a difference of one in either direction fails the gate, and the
// report names the counts in full.
func TestCompareExactCounts(t *testing.T) {
	base := map[string]*Result{"s": {Name: "s", EventsPerSec: 1000, Events: 173268, Cycles: 5465, Configs: 1}}
	for metric, edit := range map[string]func(r *Result){
		"events":  func(r *Result) { r.Events++ },
		"cycles":  func(r *Result) { r.Cycles-- },
		"configs": func(r *Result) { r.Configs = 2 },
	} {
		cur := *base["s"]
		edit(&cur)
		regs := Compare(map[string]*Result{"s": &cur}, base, 0.25)
		if len(regs) != 1 || regs[0].Metric != metric {
			t.Fatalf("%s: regs=%v", metric, regs)
		}
		if msg := regs[0].String(); !strings.Contains(msg, "must match exactly") || !strings.Contains(msg, " "+metric+" ") {
			t.Fatalf("%s: message=%q", metric, msg)
		}
	}
	if got := Compare(base, base, 0.25); len(got) != 0 {
		t.Fatalf("identical counts must pass: %v", got)
	}
}

// TestCompareAllocsGate: the gate also fails on allocs/event blowups —
// but only past the absolute floor, so near-zero baselines don't gate
// on noise.
func TestCompareAllocsGate(t *testing.T) {
	base := map[string]*Result{
		"hot":  {Name: "hot", EventsPerSec: 1000, AllocsPerEvent: 1.0},
		"cold": {Name: "cold", EventsPerSec: 1000, AllocsPerEvent: 0.001},
	}
	cur := map[string]*Result{
		"hot":  {Name: "hot", EventsPerSec: 1000, AllocsPerEvent: 2.0},   // blown up
		"cold": {Name: "cold", EventsPerSec: 1000, AllocsPerEvent: 0.01}, // 10x but under the floor
	}
	regs := Compare(cur, base, 0.25)
	if len(regs) != 1 || regs[0].Name != "hot" || regs[0].Metric != "allocs/event" {
		t.Fatalf("regs=%v", regs)
	}
	if !strings.Contains(regs[0].String(), "allocs/event") {
		t.Fatalf("message=%q", regs[0].String())
	}
	// A scenario can regress on both metrics at once.
	cur["hot"].EventsPerSec = 100
	if regs := Compare(cur, base, 0.25); len(regs) != 2 {
		t.Fatalf("both metrics must report: %v", regs)
	}
}

// TestReplayBeatsFreshReconfiguration is the acceptance check for the
// replay cache: on the repeat-heavy contrast scenario, reset-and-replay
// must deliver at least 2x the configs/sec of the fresh-elaboration
// path with a fraction of its allocations per configuration. Each side
// keeps its best of three rounds, as bench.Run does; the rounds
// alternate replay, fresh, replay, ... so that both sides see the same
// host load.
func TestReplayBeatsFreshReconfiguration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	scs, err := Select("replay-hamming-x64,fresh-hamming-x64", Scenarios()) // in this order
	if err != nil {
		t.Fatal(err)
	}
	runs := make([]RunFunc, len(scs))
	for i, sc := range scs {
		if runs[i], err = sc.Prepare(); err != nil {
			t.Fatal(err)
		}
	}
	const reps = 3
	best := make([]float64, len(runs))
	allocs, configs := make([]uint64, len(runs)), make([]uint64, len(runs))
	for rep := 0; rep < reps; rep++ {
		for i, run := range runs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			m, err := run()
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if m.Configs == 0 || m.Wall <= 0 {
				t.Fatalf("%s: no configuration metrics: %+v", scs[i].Name, m)
			}
			best[i] = max(best[i], float64(m.Configs)/m.Wall.Seconds())
			allocs[i] += after.Mallocs - before.Mallocs
			configs[i] += m.Configs
		}
	}
	if ratio := best[0] / best[1]; ratio < 2 {
		t.Fatalf("replay %.0f configs/sec vs fresh %.0f: %.2fx, want >= 2x", best[0], best[1], ratio)
	}
	replay, fresh := float64(allocs[0])/float64(configs[0]), float64(allocs[1])/float64(configs[1])
	if replay > fresh/10 {
		t.Fatalf("replay allocs/config %.1f vs fresh %.1f: cache is not near-zero", replay, fresh)
	}
}

// TestCompiledGangBeatsSequential is the gang acceptance check: on the
// pinned gang scenarios, the compiled backend's lockstep
// struct-of-arrays evaluation must deliver at least 1.5x the
// configs/sec of the event backend's sequential lane-by-lane replay of
// the same 32-lane population. The gang rounds are short (about 10-60
// ms), so a round's wall time swings by a third with the load other
// processes put on the host. After one untimed warm-up round each, the
// two backends' timed rounds therefore alternate, ten of each, and each
// backend keeps its best: a load that starts or stops mid-test falls on
// both sides instead of on whichever backend is timed second. Measured
// that way over ten runs on a 2-vCPU x86-64 host, the ratio read
// 3.5-5.6x on gang-newton and 3.8-4.2x on gang-erasure, since the
// compiled engine settles only the nodes with a changed input; the
// compiled gang's own floors are the bench/baseline/compiled gang
// scenarios.
func TestCompiledGangBeatsSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	backends := []string{"compiled", "twolevel"}
	for _, name := range []string{"gang-newton", "gang-erasure"} {
		name := name
		t.Run(name, func(t *testing.T) {
			runs := make([]RunFunc, len(backends))
			for i, backend := range backends {
				scs, err := Select(name, ScenariosFor(backend))
				if err != nil {
					t.Fatal(err)
				}
				if runs[i], err = scs[0].Prepare(); err != nil {
					t.Fatal(err)
				}
				// Untimed warm-up: the first round sizes lane state and pools.
				if _, err := runs[i](); err != nil {
					t.Fatal(err)
				}
			}
			configs := make([]uint64, len(backends))
			best := make([]float64, len(backends))
			for round := 0; round < 10; round++ {
				for i, run := range runs {
					m, err := run()
					if err != nil {
						t.Fatal(err)
					}
					if m.Configs == 0 || m.Wall <= 0 {
						t.Fatalf("%s@%s: no configuration metrics: %+v", name, backends[i], m)
					}
					configs[i] = m.Configs
					best[i] = max(best[i], float64(m.Configs)/m.Wall.Seconds())
				}
			}
			if configs[0] != configs[1] {
				t.Fatalf("gang population diverged: compiled ran %d configs, twolevel %d",
					configs[0], configs[1])
			}
			if ratio := best[0] / best[1]; ratio < 1.5 {
				t.Fatalf("compiled gang %.0f configs/sec vs sequential %.0f: %.2fx, want >= 1.5x",
					best[0], best[1], ratio)
			}
		})
	}
}

// TestCampaignScenarioExecutes runs the mixed-workload embedded-spec
// campaign once end to end: the measure must carry real simulated work
// from every case in the spec.
func TestCampaignScenarioExecutes(t *testing.T) {
	var sc *Scenario
	for _, s := range Scenarios() {
		if s.Name == "campaign-mixed-poisson" {
			s := s
			sc = &s
			break
		}
	}
	if sc == nil {
		t.Fatal("campaign-mixed-poisson not in the registry")
	}
	if sc.Pinned {
		t.Fatal("campaign scenarios must stay unpinned (no baselines for them)")
	}
	run, err := sc.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	m, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if m.Configs < 10 || m.Cycles == 0 || m.Events == 0 || m.Wall <= 0 {
		t.Fatalf("campaign measure: %+v", m)
	}
}
