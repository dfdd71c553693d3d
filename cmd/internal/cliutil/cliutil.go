// Package cliutil holds small helpers shared by the command-line tools.
package cliutil

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/hades"
	"repro/internal/workloads"
)

// FlowFlags bundles the pipeline flags shared by the tools that
// simulate designs (hsim, gnc, testsuite): simulator backend, clock
// period and cycle cap. The flag defaults are the flow defaults — the
// single source of truth — so every tool observes the same values.
type FlowFlags struct {
	Backend string
	Period  int64
	Cycles  uint64
}

// Register installs the flags on fs (the default flag.CommandLine when
// fs is nil).
func (f *FlowFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.StringVar(&f.Backend, "backend", flow.DefaultBackend,
		"simulator backend: "+flow.BackendCatalog())
	fs.Int64Var(&f.Period, "period", int64(flow.DefaultClockPeriod),
		"clock period in simulator ticks")
	fs.Uint64Var(&f.Cycles, "cycles", flow.DefaultMaxCycles,
		"cycle cap per configuration")
}

// Options renders the parsed flags as flow options.
func (f *FlowFlags) Options() []flow.Option {
	return []flow.Option{
		flow.WithBackend(f.Backend),
		flow.WithClock(hades.Time(f.Period)),
		flow.WithMaxCycles(f.Cycles),
	}
}

// RunnerFlags bundles the suite-execution flags shared by the tools that
// run regression cases (testsuite, gnc -verify): worker count, per-case
// timeout, fail-fast, verify-sweep repetitions, and machine-readable
// output.
type RunnerFlags struct {
	Jobs     int
	Timeout  time.Duration
	FailFast bool
	Repeat   int
	JSON     bool
}

// Register installs the flags on fs (the default flag.CommandLine when
// fs is nil).
func (f *RunnerFlags) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.IntVar(&f.Jobs, "j", runtime.GOMAXPROCS(0), "parallel suite workers (<=0: one per CPU)")
	fs.DurationVar(&f.Timeout, "timeout", 0, "per-case timeout; a case exceeding it fails (0 = none)")
	fs.BoolVar(&f.FailFast, "failfast", false, "cancel pending cases after the first failure")
	fs.IntVar(&f.Repeat, "repeat", 1, "simulate-and-verify rounds per case; rounds after the first reset-and-replay the prepared design")
	fs.BoolVar(&f.JSON, "json", false, "emit one JSON object per case instead of the text report")
}

// Runner renders the parsed flags as a configured suite runner.
func (f *RunnerFlags) Runner() *core.Runner {
	return &core.Runner{Workers: f.Jobs, Timeout: f.Timeout, FailFast: f.FailFast, Repeat: f.Repeat}
}

// WorkloadSpec is the parsed value of the -workload flag shared by the
// tools that materialize registry workloads (gnc, hsim):
// "name[,param=value...]", e.g. "fir,n=1024,taps=16". The zero value
// means no workload was selected (Name empty).
type WorkloadSpec struct {
	Name   string
	Values workloads.Values
}

// Register installs the flag on fs (the default flag.CommandLine when
// fs is nil).
func (s *WorkloadSpec) Register(fs *flag.FlagSet) {
	if fs == nil {
		fs = flag.CommandLine
	}
	fs.Var(s, "workload",
		"registry workload to materialize: name[,param=value...] (names: "+
			strings.Join(workloads.Names(), ", ")+")")
}

// String renders the current value in the flag's own syntax.
func (s *WorkloadSpec) String() string {
	if s == nil || s.Name == "" {
		return ""
	}
	if len(s.Values) == 0 {
		return s.Name
	}
	return s.Name + "," + s.Values.String()
}

// Set parses one name[,param=value...] spec (the syntax lives in
// workloads.ParseSpec, shared with the simd server's request decoding).
func (s *WorkloadSpec) Set(arg string) error {
	name, vals, err := workloads.ParseSpec(arg)
	if err != nil {
		return err
	}
	s.Name = name
	s.Values = vals
	return nil
}

// Case materializes the selected workload through the registry —
// unknown names and invalid parameters surface here, with the
// registry's self-describing errors.
func (s *WorkloadSpec) Case() (*workloads.Case, error) {
	return workloads.Build(s.Name, s.Values)
}

// CaseInputs is Case without running the reference model — for
// compile-only paths that never verify.
func (s *WorkloadSpec) CaseInputs() (*workloads.Case, error) {
	w, err := workloads.Lookup(s.Name)
	if err != nil {
		return nil, err
	}
	return workloads.BuildWorkloadInputs(w, s.Values)
}

// KVInts collects repeated -flag name=int values.
type KVInts map[string]int

// String renders the current value.
func (m KVInts) String() string { return fmt.Sprint(map[string]int(m)) }

// Set parses one name=int pair.
func (m KVInts) Set(s string) error {
	name, val, err := splitKV(s)
	if err != nil {
		return err
	}
	v, err := strconv.Atoi(val)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	m[name] = v
	return nil
}

// KVInt64s collects repeated -flag name=int64 values.
type KVInt64s map[string]int64

// String renders the current value.
func (m KVInt64s) String() string { return fmt.Sprint(map[string]int64(m)) }

// Set parses one name=int64 pair.
func (m KVInt64s) Set(s string) error {
	name, val, err := splitKV(s)
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(val, 0, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	m[name] = v
	return nil
}

// KVStrings collects repeated -flag name=string values.
type KVStrings map[string]string

// String renders the current value.
func (m KVStrings) String() string { return fmt.Sprint(map[string]string(m)) }

// Set parses one name=string pair.
func (m KVStrings) Set(s string) error {
	name, val, err := splitKV(s)
	if err != nil {
		return err
	}
	m[name] = val
	return nil
}

// splitKV parses one name=value pair, rejecting empty names.
func splitKV(s string) (name, val string, err error) {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return "", "", fmt.Errorf("expected name=value, got %q", s)
	}
	if name == "" {
		return "", "", fmt.Errorf("empty name in %q", s)
	}
	return name, val, nil
}
