// Command perfbench is the repository benchmark. It drives the
// verification infrastructure through its public functions on four
// workloads and prints a metadata line and then, last, one JSON result
// line:
//
//	bash perfbench/run.sh --workload suite-fresh --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// a separate run of the same seed records spans around every call into
// a layer and reports the per-layer metrics instead. Every input is
// generated from --seed, every op's output is checked, and the exact
// simulated counts of each timed pass must equal those of the untraced
// warm-up pass, so tracing (or a simulator-only change) that moves a
// simulated statistic fails the run.
//
// On a shared host the speed at which the same binary runs drifts by
// up to 2x over minutes, so the time metrics are scaled to a reference
// host by a fixed kernel sampled around every set-up and pass
// (hostcal.go); meta.raw keeps the unscaled times.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move it.
const setupReps = 3

// procs is the number of Ps a run uses. Every workload has one client
// or slot, and with the GC on the same P a run needs only one of the
// host's vCPUs. On a 2-vCPU host, a busy loop competing for the CPUs
// cut throughput by 15% (suite-fresh) to 43% (campaign-sharded with two
// slots) at GOMAXPROCS=2, and by at most 4% at GOMAXPROCS=1 with one
// client or slot.
const procs = 1

// counts are the exact simulated totals of one pass over a workload's
// seeded op list. They depend only on the inputs, never on host time.
type counts struct {
	Cases  int    `json:"cases"`
	Cycles uint64 `json:"sim_cycles"`
	Events uint64 `json:"engine_events"`
	Steps  uint64 `json:"interp_steps"`
}

func (c *counts) add(o counts) {
	c.Cases += o.Cases
	c.Cycles += o.Cycles
	c.Events += o.Events
	c.Steps += o.Steps
}

// recorder collects the outcome of every timed op. A failed op adds no
// latency and no verified cases.
type recorder struct {
	mu        sync.Mutex
	latencies []float64 // ms, successful ops only
	attempted int
	failed    int
	done      counts // verified work of the successful ops
}

func (r *recorder) ok(lat time.Duration, c counts) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.latencies = append(r.latencies, float64(lat)/float64(time.Millisecond))
	r.done.add(c)
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	r.failed++
	if r.failed <= 3 {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", err)
	}
}

func (r *recorder) failures() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// bench is one workload after set-up.
type bench interface {
	// pass runs the whole seeded op list once, recording every op in
	// rec; tr is nil when tracing is off. It returns the exact counts of
	// the ops that verified.
	pass(ctx context.Context, rec *recorder, tr *tracer) (counts, error)
	// layers derives the workload's per-layer metrics from the traced
	// timed region; ops is the number of successful ops.
	layers(tr *tracer, ops int) (map[string]float64, error)
	close() error
}

// workload is one named benchmark workload.
type workload struct {
	name    string
	backend string
	op      string
	why     string
	// opSelf is the per-layer metric that reports the op span's own
	// self time; empty when none does, and then the op's child spans
	// must cover the op.
	opSelf string
	// unobserved lists per-layer metrics of layers the workload runs
	// but the benchmark cannot time from outside the program; they
	// read 0 until the program itself is traced.
	unobserved []string
	setup      func(ctx context.Context, e *env) (bench, error)
}

// env is what a workload's set-up receives: the seed and a scratch
// directory inside the checkout.
type env struct {
	seed uint64
	dir  string
}

var workloadList = []workload{suiteFresh, gangCompiled, campaignSharded, simdVerify}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, 0, len(workloadList))
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// meta is the run metadata written beside every result.
type meta struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Trace      bool      `json:"trace"`
	Go         string    `json:"go"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Backend    string    `json:"backend"`
	Op         string    `json:"op"`
	Why        string    `json:"why"`
	Setups     []float64 `json:"setup_s"`
	Seconds    float64   `json:"timed_s"`
	Passes     int       `json:"passes"`
	PassCounts counts    `json:"pass_counts"`
	// What the timed region cost the process and the host, to tell host
	// drift from workload drift between runs: the quartiles of the
	// passes' case rates (scaled to the reference host), the process's
	// CPU seconds, the GC cycles and pause, and the quartiles of the host
	// kernel's samples (ms; the reference host's is host_ref_ms).
	PassRates  [3]float64 `json:"pass_cases_per_s_q"`
	CPUSeconds float64    `json:"cpu_s"`
	GCCycles   uint32     `json:"gc_cycles"`
	GCPauseMS  float64    `json:"gc_pause_ms"`
	HostMS     [3]float64 `json:"host_ms_q"`
	HostRefMS  float64    `json:"host_ref_ms"`
	// Raw holds the time metrics as this host measured them, before
	// they were scaled to the reference host.
	Raw        map[string]float64 `json:"raw"`
	Unobserved []string           `json:"unobserved,omitempty"`
	// OpCoverage is, for a traced run of a workload whose op self time
	// no metric reports, the smallest share of an op span its child
	// spans cover.
	OpCoverage float64 `json:"op_coverage,omitempty"`
}

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 25, "length of the timed region")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for results, traces and scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>:", err)
		return 2
	}
	runtime.GOMAXPROCS(procs)
	res, md, err := measure(ctx, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	mline, _ := json.Marshal(map[string]any{"meta": md}) // plain values: cannot fail
	if err := writeResult(*out, md, mline, line); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", mline, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up setupReps times, then runs whole passes
// until the timed region has lasted at least d. Every set-up and pass
// lies between two host kernel samples, and its times are scaled by
// them to the reference host (hostScale); the time metrics report the
// scaled times, and meta.raw the host's own.
func measure(ctx context.Context, w workload, seed uint64, d time.Duration, traced bool, out string) (*result, *meta, error) {
	dir, err := os.MkdirTemp(mkdir(filepath.Join(out, "work")), w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, dir: dir}
	hk := newHostKernel()

	md := &meta{
		Workload: w.name, Seed: seed, Trace: traced,
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Backend: w.backend, Op: w.op, Why: w.why,
		HostRefMS: hostRefMS, Raw: map[string]float64{},
	}
	var b bench
	var warm counts
	var rawSetups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		k0 := hk.sample()
		start := time.Now()
		b, err = w.setup(ctx, e)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		// The fixed warm-up: one untraced pass, whose exact counts every
		// timed pass must repeat.
		scratch := &recorder{}
		warm, err = b.pass(ctx, scratch, nil)
		if err != nil {
			b.close()
			return nil, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
		if scratch.failed > 0 {
			b.close()
			return nil, nil, fmt.Errorf("%s: warm-up: %d of %d ops failed", w.name, scratch.failed, scratch.attempted)
		}
		raw := time.Since(start).Seconds()
		rawSetups = append(rawSetups, raw)
		md.Setups = append(md.Setups, raw*hostScale(k0, hk.sample()))
	}
	defer b.close()
	md.PassCounts = warm
	if err := checkRepeatCounts(out, w.name, seed, warm); err != nil {
		return nil, nil, err
	}

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rec := &recorder{}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	samples := []float64{hk.sample()}
	start := time.Now()
	var guard error
	var rates, lat []float64
	var wall, scaled float64 // summed pass seconds, host and reference
	for md.Passes == 0 || time.Since(start) < d {
		before, ops := rec.failures(), len(rec.latencies)
		p0 := time.Now()
		c, err := b.pass(ctx, rec, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: pass %d: %w", w.name, md.Passes, err)
		}
		secs := time.Since(p0).Seconds()
		samples = append(samples, hk.sample())
		f := hostScale(samples[len(samples)-2], samples[len(samples)-1])
		wall += secs
		scaled += secs * f
		for _, l := range rec.latencies[ops:] {
			lat = append(lat, l*f)
		}
		rates = append(rates, float64(c.Cases)/(secs*f))
		md.Passes++
		if rec.failures() == before && c != warm && guard == nil {
			guard = fmt.Errorf("%s: exact-count guard: pass %d (traced=%v) counted %+v, the untraced warm-up %+v",
				w.name, md.Passes, traced, c, warm)
		}
	}
	md.Seconds = time.Since(start).Seconds()
	md.CPUSeconds = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	sort.Float64s(rates)
	md.PassRates = [3]float64{quantile(rates, 0.25), quantile(rates, 0.5), quantile(rates, 0.75)}
	sort.Float64s(samples)
	md.HostMS = [3]float64{quantile(samples, 0.25), quantile(samples, 0.5), quantile(samples, 0.75)}
	md.GCCycles = m1.NumGC - m0.NumGC
	md.GCPauseMS = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6

	res := &result{
		Correct:   rec.failed == 0 && guard == nil,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]metric{},
	}
	if guard != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", guard)
	}
	cases := float64(rec.done.Cases)
	perCase := func(v float64) float64 {
		if cases == 0 {
			return 0
		}
		return v / cases
	}
	md.Raw["cases_per_s"] = cases / wall
	if !traced {
		sort.Float64s(lat)
		rawLat := append([]float64(nil), rec.latencies...)
		sort.Float64s(rawLat)
		md.Raw["setup_s"] = median(rawSetups)
		md.Raw["op_p50_ms"] = quantile(rawLat, 0.50)
		md.Raw["op_p90_ms"] = quantile(rawLat, 0.90)
		put := func(name string, v float64) { res.Metrics[name] = metric{v, unitOf(endToEnd, name)} }
		put("setup_s", median(md.Setups))
		put("cases_per_s", cases/scaled)
		put("op_p50_ms", quantile(lat, 0.50))
		put("op_p90_ms", quantile(lat, 0.90))
		put("allocs_per_case", perCase(float64(m1.Mallocs-m0.Mallocs)))
		put("peak_rss_mb", peakRSSMiB())
		put("sim_cycles_per_case", perCase(float64(rec.done.Cycles)))
		return res, md, nil
	}

	layer, err := b.layers(tr, len(rec.latencies))
	if err != nil {
		return nil, nil, err
	}
	layer["go.gc_cycles_per_kcase"] = 1000 * perCase(float64(m1.NumGC-m0.NumGC))
	layer["go.gc_pause_ms_per_case"] = perCase(float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6)
	layer["trace.cases_per_s"] = cases / scaled
	if w.opSelf == "" {
		cov := tr.opCoverage(false)
		sort.Float64s(cov)
		md.OpCoverage = quantile(cov, 0)
	}
	if err := tr.write(filepath.Join(mkdir(filepath.Join(out, "traces")), fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))); err != nil {
		return nil, nil, err
	}
	md.Unobserved = w.unobserved
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{layer[m.name], m.unit}
	}
	for name := range layer {
		if unitOf(perLayer, name) == "" {
			return nil, nil, fmt.Errorf("%s: undeclared per-layer metric %q", w.name, name)
		}
	}
	return res, md, nil
}

// checkRepeatCounts pins the exact counts of a seed across runs of one
// build: the first run of a (workload, seed, binary) records them, and
// every later run, traced or not, must repeat them.
func checkRepeatCounts(out, workload string, seed uint64, c counts) error {
	id, err := executableID()
	if err != nil {
		return err
	}
	path := filepath.Join(mkdir(filepath.Join(out, "counts")), fmt.Sprintf("%s-seed%d-%s.json", workload, seed, id))
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		data, _ = json.Marshal(c)
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	var prev counts
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("counts file %s: %w", path, err)
	}
	if prev != c {
		return fmt.Errorf("%s: exact-count guard: seed %d counted %+v, an earlier run of this build %+v", workload, seed, c, prev)
	}
	return nil
}

func executableID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:6]), nil
}

func writeResult(out string, md *meta, lines ...[]byte) error {
	path := filepath.Join(mkdir(filepath.Join(out, "results")),
		fmt.Sprintf("%s-seed%d-trace%v.jsonl", md.Workload, md.Seed, md.Trace))
	var data []byte
	for _, l := range lines {
		data = append(append(data, l...), '\n')
	}
	return os.WriteFile(path, data, 0o644)
}

// mkdir creates dir (best effort; the following file operation reports
// any failure) and returns it.
func mkdir(dir string) string {
	os.MkdirAll(dir, 0o755)
	return dir
}

// quantile is the linear-interpolated q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's peak resident set (ru_maxrss, which
// Linux reports in KiB and keeps equal to VmHWM).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
