package cliutil

import (
	"flag"
	"runtime"
	"testing"
	"time"

	"repro/internal/flow"
)

func TestRunnerFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var rf RunnerFlags
	rf.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if rf.Jobs != runtime.GOMAXPROCS(0) {
		t.Fatalf("Jobs=%d, want GOMAXPROCS", rf.Jobs)
	}
	if rf.Timeout != 0 || rf.FailFast || rf.JSON {
		t.Fatalf("rf=%+v", rf)
	}
}

func TestRunnerFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var rf RunnerFlags
	rf.Register(fs)
	if err := fs.Parse([]string{"-j", "4", "-timeout", "30s", "-failfast", "-json"}); err != nil {
		t.Fatal(err)
	}
	if rf.Jobs != 4 || rf.Timeout != 30*time.Second || !rf.FailFast || !rf.JSON {
		t.Fatalf("rf=%+v", rf)
	}
}

func TestKVInts(t *testing.T) {
	m := KVInts{}
	if err := m.Set("a=4"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("b=16"); err != nil {
		t.Fatal(err)
	}
	if m["a"] != 4 || m["b"] != 16 {
		t.Fatalf("m=%v", m)
	}
	for _, bad := range []string{"a", "a=x", "=", ""} {
		if err := m.Set(bad); err == nil {
			t.Errorf("Set(%q) must fail", bad)
		}
	}
	if m.String() == "" {
		t.Error("String must render")
	}
}

func TestKVInt64s(t *testing.T) {
	m := KVInt64s{}
	if err := m.Set("n=-9"); err != nil {
		t.Fatal(err)
	}
	if err := m.Set("h=0x10"); err != nil {
		t.Fatal(err)
	}
	if m["n"] != -9 || m["h"] != 16 {
		t.Fatalf("m=%v", m)
	}
	if err := m.Set("bad"); err == nil {
		t.Error("missing = must fail")
	}
}

func TestKVStrings(t *testing.T) {
	m := KVStrings{}
	if err := m.Set("img=path/to.mem"); err != nil {
		t.Fatal(err)
	}
	if m["img"] != "path/to.mem" {
		t.Fatalf("m=%v", m)
	}
	if err := m.Set("noval"); err == nil {
		t.Error("missing = must fail")
	}
}

func TestFlowFlagsDefaultsAreTheFlowDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var ff FlowFlags
	ff.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if ff.Backend != flow.DefaultBackend {
		t.Errorf("Backend=%q want %q", ff.Backend, flow.DefaultBackend)
	}
	if ff.Period != int64(flow.DefaultClockPeriod) {
		t.Errorf("Period=%d want %d", ff.Period, flow.DefaultClockPeriod)
	}
	if ff.Cycles != flow.DefaultMaxCycles {
		t.Errorf("Cycles=%d want %d", ff.Cycles, flow.DefaultMaxCycles)
	}
	// The rendered options resolve to exactly the flags' values.
	p, err := flow.New(ff.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.ClockPeriod != flow.DefaultClockPeriod || cfg.MaxCycles != flow.DefaultMaxCycles ||
		cfg.Backend != flow.DefaultBackend {
		t.Fatalf("resolved config %+v diverges from flow defaults", cfg)
	}
}

func TestFlowFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var ff FlowFlags
	ff.Register(fs)
	if err := fs.Parse([]string{"-backend", "compiled", "-period", "4", "-cycles", "99"}); err != nil {
		t.Fatal(err)
	}
	p, err := flow.New(ff.Options()...)
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.Backend != "compiled" || cfg.ClockPeriod != 4 || cfg.MaxCycles != 99 {
		t.Fatalf("cfg=%+v", cfg)
	}
	if _, err := flow.New(flow.WithBackend("bogus")); err == nil {
		t.Fatal("bogus backend must fail pipeline construction")
	}
}

func TestWorkloadSpecParse(t *testing.T) {
	var s WorkloadSpec
	if err := s.Set("fir,n=1024,taps=16"); err != nil {
		t.Fatal(err)
	}
	if s.Name != "fir" || s.Values["n"] != 1024 || s.Values["taps"] != 16 {
		t.Fatalf("s=%+v", s)
	}
	if got := s.String(); got != "fir,n=1024,taps=16" {
		t.Fatalf("String() = %q", got)
	}
	c, err := s.Case()
	if err != nil {
		t.Fatal(err)
	}
	if c.Workload != "fir" || c.ArraySizes["y"] != 1024 || len(c.Expected["y"]) != 1024 {
		t.Fatalf("case %+v", c)
	}

	// Bare name: defaults resolve at Build time.
	s = WorkloadSpec{}
	if err := s.Set("hamming"); err != nil {
		t.Fatal(err)
	}
	if s.String() != "hamming" || len(s.Values) != 0 {
		t.Fatalf("s=%+v", s)
	}
	if _, err := s.Case(); err != nil {
		t.Fatal(err)
	}

	// Registry errors surface through Case with self-describing messages.
	s = WorkloadSpec{}
	if err := s.Set("nope"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Case(); err == nil {
		t.Fatal("unknown workload must fail Case()")
	}
	s = WorkloadSpec{}
	if err := s.Set("matmul,n=9999"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Case(); err == nil {
		t.Fatal("out-of-range parameter must fail Case()")
	}
}

func TestWorkloadSpecMalformed(t *testing.T) {
	for _, bad := range []string{"", ",n=4", "n=4", "fir,=4", "fir,n", "fir,n=", "fir,n=zz", "fir,n=4x"} {
		var s WorkloadSpec
		if err := s.Set(bad); err == nil {
			t.Errorf("Set(%q) must fail", bad)
		}
	}
	// A trailing comma is tolerated (shell editing artifact).
	var s WorkloadSpec
	if err := s.Set("fir,"); err != nil {
		t.Fatal(err)
	}
	if s.Name != "fir" || len(s.Values) != 0 {
		t.Fatalf("s=%+v", s)
	}
}

func TestKVMalformedInputs(t *testing.T) {
	for _, bad := range []string{"", "=", "=5", "noequals", "a=", "a=notanum", "a=99999999999999999999"} {
		if err := (KVInts{}).Set(bad); err == nil {
			t.Errorf("KVInts.Set(%q) must fail", bad)
		}
	}
	for _, bad := range []string{"", "=", "=5", "noequals", "a=", "a=zz", "a=99999999999999999999"} {
		if err := (KVInt64s{}).Set(bad); err == nil {
			t.Errorf("KVInt64s.Set(%q) must fail", bad)
		}
	}
	for _, bad := range []string{"", "=x", "noequals"} {
		if err := (KVStrings{}).Set(bad); err == nil {
			t.Errorf("KVStrings.Set(%q) must fail", bad)
		}
	}
	// Values may legitimately contain '=' after the first split.
	m := KVStrings{}
	if err := m.Set("k=a=b"); err != nil || m["k"] != "a=b" {
		t.Fatalf("m=%v err=%v", m, err)
	}
}
