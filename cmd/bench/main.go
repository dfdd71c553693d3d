// Command bench runs the repeatable benchmark scenarios and records the
// performance trajectory as machine-readable BENCH_<name>.json files.
//
// Usage:
//
//	bench -list                      # show the scenario registry (name, family, pinned)
//	bench -list-workloads            # show the workload families and their parameters
//	bench -list-backends             # show the registered simulator backends
//	bench                            # run the pinned set, write BENCH_*.json to .
//	bench -backend compiled          # same scenarios on the cycle engine
//	bench -scenarios all -out bout   # run everything, write files to bout/
//	bench -baseline bench/baseline/twolevel  # fail on >25% events/sec drop or allocs/event rise
//	bench -update-baseline           # refresh the checked-in baseline instead
//	bench -reps 5 -json              # more repetitions; JSON lines on stdout
//	bench -scenarios replay-hamming-x64 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/flow"
	"repro/internal/workloads"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list          = flag.Bool("list", false, "list scenarios and exit")
		listWorkloads = flag.Bool("list-workloads", false, "list workload families with their parameters and exit")
		listBackends  = flag.Bool("list-backends", false, "list registered simulator backends and exit")
		backend       = flag.String("backend", flow.DefaultBackend, "simulator backend to run the scenarios on")
		selector      = flag.String("scenarios", "pinned", "scenarios to run: pinned, all, or comma-separated names")
		reps          = flag.Int("reps", 3, "timed repetitions per scenario (best events/sec wins)")
		out           = flag.String("out", ".", "directory for BENCH_<name>.json files")
		baseline      = flag.String("baseline", "", "baseline directory to compare against (exit 1 on regression)")
		threshold     = flag.Float64("threshold", 0.25, "allowed regression vs baseline on the two timing metrics (0.25 = fail below 75% of baseline events/sec or above 125% of baseline allocs/event); events, cycles and configs must match exactly")
		update        = flag.Bool("update-baseline", false, "write results into -baseline instead of comparing")
		asJSON        = flag.Bool("json", false, "emit one JSON object per scenario on stdout")
		cpuprofile    = flag.String("cpuprofile", "", "write a CPU profile of the scenario runs to this file")
		memprofile    = flag.String("memprofile", "", "write a heap profile to this file after the scenario runs")
	)
	flag.Parse()

	if *listBackends {
		// First column stays the bare name: scripted consumers
		// (`-list-backends | awk '{print $1}'`) enumerate backends from it.
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		for _, b := range flow.Backends() {
			gang := "-"
			if b.SupportsGang {
				gang = "gang"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", b.Name, b.Kind, gang, b.Desc)
		}
		return tw.Flush()
	}
	if *listWorkloads {
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		for _, w := range workloads.All() {
			fmt.Fprintf(tw, "%s\t%s\n", w.Name(), w.Doc())
			for _, p := range w.Params() {
				fmt.Fprintf(tw, "  %s=%d\t%s [%d, %d]\n", p.Name, p.Default, p.Doc, p.Min, p.Max)
			}
		}
		return tw.Flush()
	}
	if _, err := flow.LookupBackend(*backend); err != nil {
		return err
	}
	all := bench.ScenariosFor(*backend)
	if *list {
		tw := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		for _, sc := range all {
			pin := ""
			if sc.Pinned {
				pin = "pinned"
			}
			family := sc.Family
			if family == "" {
				family = "-"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", sc.Name, family, pin, sc.Desc)
		}
		return tw.Flush()
	}

	selected, err := bench.Select(*selector, all)
	if err != nil {
		return err
	}
	if len(selected) == 0 {
		return fmt.Errorf("no scenarios selected by %q", *selector)
	}
	if *update && *baseline == "" {
		return fmt.Errorf("-update-baseline requires -baseline")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	results := map[string]*bench.Result{}
	enc := json.NewEncoder(os.Stdout)
	for _, sc := range selected {
		res, err := bench.Run(sc, *reps)
		if err != nil {
			return err
		}
		results[res.Name] = res
		dir := *out
		if *update {
			dir = *baseline
		}
		path, err := bench.Save(res, dir)
		if err != nil {
			return err
		}
		if *asJSON {
			if err := enc.Encode(res); err != nil {
				return err
			}
		} else {
			extra := ""
			if res.Configs > 0 {
				extra = fmt.Sprintf("  %8.0f configs/sec  %8.1f allocs/config",
					res.ConfigsPerSec, res.AllocsPerCfg)
			}
			fmt.Printf("%-22s %12.0f events/sec  %8.3f allocs/event  %10d events  %8.1fms%s  -> %s\n",
				res.Name, res.EventsPerSec, res.AllocsPerEvent, res.Events,
				float64(res.WallNS)/1e6, extra, path)
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // materialize the steady-state heap before the snapshot
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}

	if *baseline != "" && !*update {
		base, err := bench.Load(*baseline)
		if err != nil {
			return err
		}
		if len(base) == 0 {
			return fmt.Errorf("no BENCH_*.json baseline found in %s", *baseline)
		}
		regs := bench.Compare(results, base, *threshold)
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "REGRESSION:", r)
			}
			return fmt.Errorf("%d regression(s) vs %s (events, cycles or configs changed, or events/sec or allocs/event beyond %.0f%%)",
				len(regs), *baseline, *threshold*100)
		}
		fmt.Printf("baseline check: %d scenario(s) match %s exactly on events, cycles and configs and within %.0f%% (events/sec and allocs/event)\n",
			len(base), *baseline, *threshold*100)
	}
	return nil
}
