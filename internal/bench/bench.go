// Package bench is the repeatable benchmark subsystem: named workload
// scenarios (raw kernel traffic, the paper's evaluation workloads end to
// end, and rtg-generated designs at several widths), a runner that
// repeats each scenario and keeps the best observation, and
// machine-readable BENCH_<name>.json output so the performance
// trajectory of the simulator is recorded and CI can fail on
// regressions (see Compare).
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/api"
)

// Measure is what one timed execution of a scenario observed. Wall is
// the simulation wall time only for kernel and end-to-end scenarios
// (compile and golden-reference phases are excluded, so events/sec is a
// kernel throughput number), and the whole reconfiguration loop —
// reset/elaborate included — for the replay/fresh contrast scenarios,
// whose point is the reconfiguration overhead itself. Configs counts
// executed configurations when the scenario walks an RTG (0 for raw
// kernel scenarios).
type Measure struct {
	Events  uint64
	Cycles  uint64
	Configs uint64
	Wall    time.Duration
}

// RunFunc executes one prepared, timed iteration of a scenario.
type RunFunc func() (Measure, error)

// Scenario is a named repeatable workload. Prepare does the one-time
// setup (compiling a design, generating inputs) and returns the timed
// closure; the runner calls it once and then times Reps executions.
type Scenario struct {
	Name    string
	Desc    string
	Family  string // workload-registry family the scenario derives from ("" for kernel/handcrafted scenarios)
	Pinned  bool   // part of the CI regression set
	Backend string // simulator backend the scenario executes on
	Prepare func() (RunFunc, error)
}

// Result is the machine-readable outcome of one scenario, serialised as
// BENCH_<name>.json. It is the shared versioned wire type
// (api.BenchResult): the bench files, `bench -json` output, the suite
// JSONL and the simd server all speak internal/api. Results written
// before the schema_version field existed (the checked-in baselines)
// load with SchemaVersion 0, which is read as version 1.
type Result = api.BenchResult

// Run prepares the scenario once and times reps executions, reporting
// the best observation (best-of-N is the stable estimator for
// throughput under scheduler noise). Allocation counts are averaged
// across the repetitions.
func Run(sc Scenario, reps int) (*Result, error) {
	if reps <= 0 {
		reps = 1
	}
	run, err := sc.Prepare()
	if err != nil {
		return nil, fmt.Errorf("bench: %s: prepare: %w", sc.Name, err)
	}
	res := &Result{
		SchemaVersion: api.SchemaVersion,
		Name:          sc.Name,
		Desc:          sc.Desc,
		Pinned:        sc.Pinned,
		Backend:       sc.Backend,
		Reps:          reps,
		UnixTime:      time.Now().Unix(),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
	}
	var totalAllocs, totalEvents, totalConfigs uint64
	best := -1.0
	for i := 0; i < reps; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := run()
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", sc.Name, err)
		}
		runtime.ReadMemStats(&after)
		if m.Events == 0 || m.Wall <= 0 {
			return nil, fmt.Errorf("bench: %s: empty measure (events=%d wall=%v)", sc.Name, m.Events, m.Wall)
		}
		totalAllocs += after.Mallocs - before.Mallocs
		totalEvents += m.Events
		totalConfigs += m.Configs
		if eps := float64(m.Events) / m.Wall.Seconds(); eps > best {
			best = eps
			res.Events = m.Events
			res.Cycles = m.Cycles
			res.Configs = m.Configs
			res.WallNS = m.Wall.Nanoseconds()
			res.EventsPerSec = eps
			if m.Configs > 0 {
				res.ConfigsPerSec = float64(m.Configs) / m.Wall.Seconds()
			}
		}
	}
	res.AllocsPerEvent = float64(totalAllocs) / float64(totalEvents)
	if totalConfigs > 0 {
		res.AllocsPerCfg = float64(totalAllocs) / float64(totalConfigs)
	}
	return res, nil
}

// FileName returns the BENCH_<name>.json file name for a scenario name.
func FileName(name string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '-'
	}, name)
	return "BENCH_" + clean + ".json"
}

// Save writes the result as BENCH_<name>.json under dir. (Result is an
// alias of the shared wire type api.BenchResult, so this is a package
// function rather than a method.)
func Save(r *Result, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	doc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, FileName(r.Name))
	return path, os.WriteFile(path, append(doc, '\n'), 0o644)
}

// Load reads every BENCH_*.json under dir, keyed by scenario name.
func Load(dir string) (map[string]*Result, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]*Result{}
	for _, path := range matches {
		doc, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r Result
		if err := json.Unmarshal(doc, &r); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		if r.Name == "" {
			return nil, fmt.Errorf("bench: %s: missing scenario name", path)
		}
		if err := api.CheckVersion(r.SchemaVersion); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", path, err)
		}
		out[r.Name] = &r
	}
	return out, nil
}

// Regression is one scenario that fell outside the baseline tolerance
// on some metric, or whose run and baseline are not comparable at all
// (Mismatch set).
type Regression struct {
	Name     string
	Metric   string  // "events/sec" (lower is worse), "allocs/event" (higher is worse), or an exact count: "events", "cycles", "configs"
	Baseline float64 // baseline value of the metric
	Current  float64 // current value of the metric
	Ratio    float64 // current / baseline
	Mismatch string  // non-empty: results are incomparable (wrong backend)
}

func (r Regression) String() string {
	if r.Mismatch != "" {
		return fmt.Sprintf("%s: %s", r.Name, r.Mismatch)
	}
	metric := r.Metric
	switch metric {
	case "":
		metric = "events/sec"
	case "events", "cycles", "configs":
		return fmt.Sprintf("%s: %.0f %s vs baseline %.0f (must match exactly)", r.Name, r.Current, metric, r.Baseline)
	}
	return fmt.Sprintf("%s: %.4g %s vs baseline %.4g (%.2fx)",
		r.Name, r.Current, metric, r.Baseline, r.Ratio)
}

// allocFloor is the absolute allocs/event slack below which the alloc
// gate stays silent: near-zero baselines (fractions of an allocation
// per thousand events) would otherwise fail on measurement noise from
// a 25% relative check.
const allocFloor = 0.05

// Compare checks current results against a baseline. The simulated
// work must match exactly: events, cycles and configs are deterministic
// counts, so any difference is a regression, with no threshold. Two
// timing metrics gate within threshold: events/sec must stay within
// threshold below baseline (e.g. 0.25 fails below 75%), and
// allocs/event within threshold above baseline (0.25 fails past 125%,
// with allocFloor absolute slack so near-zero baselines don't gate on
// noise) — a perf win that paid for itself in garbage is a regression
// too. A missing current result is
// reported as a regression with zero throughput so a silently-dropped
// scenario can never pass the gate, and a backend mismatch between a
// result and its baseline is reported as incomparable — gating a
// backend against another backend's numbers (a stale -baseline path)
// must never pass or fail on the difference between the engines.
func Compare(current, baseline map[string]*Result, threshold float64) []Regression {
	var regs []Regression
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		if base.EventsPerSec <= 0 {
			continue
		}
		cur, ok := current[name]
		if !ok {
			regs = append(regs, Regression{Name: name, Metric: "events/sec", Baseline: base.EventsPerSec})
			continue
		}
		if base.Backend != "" && cur.Backend != "" && base.Backend != cur.Backend {
			regs = append(regs, Regression{
				Name:     name,
				Baseline: base.EventsPerSec,
				Current:  cur.EventsPerSec,
				Mismatch: fmt.Sprintf("ran on backend %q but baseline was recorded on %q", cur.Backend, base.Backend),
			})
			continue
		}
		for _, n := range []struct {
			metric    string
			base, cur uint64
		}{
			{"events", base.Events, cur.Events},
			{"cycles", base.Cycles, cur.Cycles},
			{"configs", base.Configs, cur.Configs},
		} {
			if n.cur != n.base {
				regs = append(regs, Regression{Name: name, Metric: n.metric, Baseline: float64(n.base), Current: float64(n.cur)})
			}
		}
		if ratio := cur.EventsPerSec / base.EventsPerSec; ratio < 1-threshold {
			regs = append(regs, Regression{
				Name:     name,
				Metric:   "events/sec",
				Baseline: base.EventsPerSec,
				Current:  cur.EventsPerSec,
				Ratio:    ratio,
			})
		}
		if cur.AllocsPerEvent > base.AllocsPerEvent*(1+threshold) &&
			cur.AllocsPerEvent-base.AllocsPerEvent > allocFloor {
			ratio := 0.0
			if base.AllocsPerEvent > 0 {
				ratio = cur.AllocsPerEvent / base.AllocsPerEvent
			}
			regs = append(regs, Regression{
				Name:     name,
				Metric:   "allocs/event",
				Baseline: base.AllocsPerEvent,
				Current:  cur.AllocsPerEvent,
				Ratio:    ratio,
			})
		}
	}
	return regs
}
