package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/flow"
	"repro/internal/workloads"
)

func trivialSuite(n int) *Suite {
	s := &Suite{Name: "trivial"}
	for i := 0; i < n; i++ {
		s.Cases = append(s.Cases, hammingCase(fmt.Sprintf("ham%02d", i), 4+i%4))
	}
	return s
}

// durationRE matches Go duration renderings ("1.5ms", "1m0.5s", "300µs").
var durationRE = regexp.MustCompile(`(\d+(\.\d+)?(h|ms|µs|us|ns|m|s))+`)

// normalizeReport blanks wall times, the derived speedup, and the worker
// count so reports from different worker counts can be compared byte
// for byte — everything else must be deterministic.
func normalizeReport(s string) string {
	s = durationRE.ReplaceAllString(s, "T")
	s = regexp.MustCompile(`speedup \d+(\.\d+)?x`).ReplaceAllString(s, "speedup Sx")
	s = regexp.MustCompile(`workers: \d+`).ReplaceAllString(s, "workers: N")
	s = regexp.MustCompile(`kernel \d+ events/sec`).ReplaceAllString(s, "kernel E events/sec")
	return s
}

func TestRunnerDeterministicOrdering(t *testing.T) {
	suite := trivialSuite(12)
	seq := (&Runner{Workers: 1}).Run(context.Background(), suite, Options{})
	par := (&Runner{Workers: 8}).Run(context.Background(), suite, Options{})
	if !seq.Passed() || !par.Passed() {
		t.Fatalf("seq passed=%v par passed=%v", seq.Passed(), par.Passed())
	}
	if len(par.Results) != len(suite.Cases) {
		t.Fatalf("results=%d", len(par.Results))
	}
	for i, r := range par.Results {
		if r.Name != suite.Cases[i].Name {
			t.Fatalf("result %d is %q, want %q", i, r.Name, suite.Cases[i].Name)
		}
	}
	var bufSeq, bufPar bytes.Buffer
	seq.Report(&bufSeq)
	par.Report(&bufPar)
	nSeq, nPar := normalizeReport(bufSeq.String()), normalizeReport(bufPar.String())
	if nSeq != nPar {
		t.Fatalf("reports differ beyond wall times:\n--- workers=1\n%s\n--- workers=8\n%s", nSeq, nPar)
	}
}

// TestRunnerTimeoutSurfacesAsFailedCase runs once per backend: the
// per-case context must reach the event kernel's per-instant poll and
// the cycle engine's per-edge poll alike.
func TestRunnerTimeoutSurfacesAsFailedCase(t *testing.T) {
	for _, backend := range flow.BackendNames() {
		t.Run(backend, func(t *testing.T) { runnerTimeoutSurfacesAsFailedCase(t, Options{Backend: backend}) })
	}
}

func runnerTimeoutSurfacesAsFailedCase(t *testing.T, opts Options) {
	// The slow FDCT takes seconds uninterrupted; the kernel must notice
	// the deadline mid-simulation and fail the case promptly.
	src, sizes, args, inputs := workloads.FDCTCase("slow", 65536, false, 42)
	slow := TestCase{Name: "slow", Source: src, Func: "fdct",
		ArraySizes: sizes, ScalarArgs: args, Inputs: inputs}
	suite := &Suite{Name: "timeouts", Cases: []TestCase{slow, hammingCase("fast", 8)}}

	start := time.Now()
	res := (&Runner{Workers: 2, Timeout: 150 * time.Millisecond}).Run(context.Background(), suite, opts)
	wall := time.Since(start)

	if res.Passed() {
		t.Fatal("suite with a timed-out case must not pass")
	}
	sr := res.Results[0]
	if sr.OK() || sr.Err == nil || !strings.Contains(sr.Err.Error(), "timeout after") {
		t.Fatalf("slow case: OK=%v err=%v", sr.OK(), sr.Err)
	}
	if sr.Skipped {
		t.Fatal("timed-out case must be failed, not skipped")
	}
	if fr := res.Results[1]; !fr.OK() {
		t.Fatalf("fast case must still pass: %+v", fr)
	}
	// Far below the multi-second uninterrupted runtime: proves the
	// kernel stopped at the deadline instead of running to completion.
	if wall > 5*time.Second {
		t.Fatalf("suite took %v; timeout did not interrupt the simulation", wall)
	}
	passed, failed := res.Counts()
	if passed != 1 || failed != 1 {
		t.Fatalf("passed=%d failed=%d", passed, failed)
	}
}

func TestRunnerFailFastSkipsPending(t *testing.T) {
	suite := &Suite{Name: "failfast", Cases: []TestCase{
		{Name: "broken", Source: "void f( {", Func: "f"},
		hammingCase("later1", 8),
		hammingCase("later2", 8),
	}}
	res := (&Runner{Workers: 1, FailFast: true}).Run(context.Background(), suite, Options{})
	if res.Passed() {
		t.Fatal("suite must fail")
	}
	if res.Results[0].OK() || res.Results[0].Skipped {
		t.Fatalf("first case must be a real failure: %+v", res.Results[0])
	}
	for i := 1; i < 3; i++ {
		r := res.Results[i]
		if !r.Skipped {
			t.Fatalf("case %d must be skipped after fail-fast, got %+v", i, r)
		}
		if r.Err == nil || !strings.Contains(r.Err.Error(), "skipped") {
			t.Fatalf("case %d error=%v", i, r.Err)
		}
	}
	if n := res.Skipped(); n != 2 {
		t.Fatalf("skipped=%d", n)
	}
	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	for _, want := range []string{"SKIP", "(2 skipped)", "0 passed, 3 failed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRunnerFailFastCancelsInFlight(t *testing.T) {
	// With two workers the broken case fails almost instantly while the
	// slow FDCT is (or is about to start) executing; fail-fast must
	// interrupt it mid-simulation and record it as skipped, not as a
	// second failure.
	src, sizes, args, inputs := workloads.FDCTCase("slow", 65536, false, 42)
	slow := TestCase{Name: "slow", Source: src, Func: "fdct",
		ArraySizes: sizes, ScalarArgs: args, Inputs: inputs}
	suite := &Suite{Name: "ff-inflight", Cases: []TestCase{
		{Name: "broken", Source: "void f( {", Func: "f"},
		slow,
	}}
	start := time.Now()
	res := (&Runner{Workers: 2, FailFast: true}).Run(context.Background(), suite, Options{})
	wall := time.Since(start)
	if res.Results[0].Skipped || res.Results[0].OK() {
		t.Fatalf("broken case must be the one real failure: %+v", res.Results[0])
	}
	if r := res.Results[1]; !r.Skipped {
		t.Fatalf("in-flight case must be skipped, got err=%v passed=%v", r.Err, r.Passed)
	}
	if res.Skipped() != 1 {
		t.Fatalf("skipped=%d", res.Skipped())
	}
	// Far below the slow case's multi-second uninterrupted runtime.
	if wall > 5*time.Second {
		t.Fatalf("fail-fast did not interrupt the in-flight case (suite took %v)", wall)
	}
}

func TestRunnerNoFailFastRunsEverything(t *testing.T) {
	suite := &Suite{Name: "keep-going", Cases: []TestCase{
		{Name: "broken", Source: "void f( {", Func: "f"},
		hammingCase("later", 8),
	}}
	res := (&Runner{Workers: 1}).Run(context.Background(), suite, Options{})
	if res.Skipped() != 0 {
		t.Fatalf("nothing may be skipped without fail-fast: %+v", res.Results)
	}
	if !res.Results[1].OK() {
		t.Fatalf("second case must run and pass: %+v", res.Results[1])
	}
}

// TestRunnerManyTrivialCasesConcurrently exists chiefly for the race
// detector: every case builds its own compiler and simulator, and this
// drives many of them through all workers at once.
func TestRunnerManyTrivialCasesConcurrently(t *testing.T) {
	suite := trivialSuite(32)
	res := (&Runner{Workers: 8}).Run(context.Background(), suite, Options{})
	if !res.Passed() {
		for _, r := range res.Results {
			if !r.OK() {
				t.Errorf("case %s: err=%v passed=%v", r.Name, r.Err, r.Passed)
			}
		}
		t.Fatal("suite failed")
	}
	if passed, failed := res.Counts(); passed != 32 || failed != 0 {
		t.Fatalf("passed=%d failed=%d", passed, failed)
	}
}

func TestRunnerCancellationSkipsCases(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := (&Runner{Workers: 2}).Run(ctx, trivialSuite(4), Options{})
	if res.Passed() {
		t.Fatal("canceled suite must not pass")
	}
	for i, r := range res.Results {
		if !r.Skipped {
			t.Fatalf("case %d must be skipped under a canceled context: %+v", i, r)
		}
	}
}

func TestEmptySuiteNotPassed(t *testing.T) {
	res := (&Suite{Name: "empty"}).Run(Options{})
	if res.Passed() {
		t.Fatal("an empty suite must report not-passed")
	}
	if passed, failed := res.Counts(); passed != 0 || failed != 0 {
		t.Fatalf("passed=%d failed=%d", passed, failed)
	}
	var buf bytes.Buffer
	res.Report(&buf)
	out := buf.String()
	for _, want := range []string{"0 passed, 0 failed", "workers: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestSuiteResultAggregates(t *testing.T) {
	res := (&Runner{Workers: 2}).Run(context.Background(), trivialSuite(4), Options{})
	if !res.Passed() {
		t.Fatal("suite failed")
	}
	if res.Workers != 2 {
		t.Fatalf("workers=%d", res.Workers)
	}
	if res.TotalEvents == 0 {
		t.Fatal("TotalEvents must aggregate kernel events")
	}
	if res.MaxCaseWall <= 0 || res.MaxCaseWall > res.Wall {
		t.Fatalf("MaxCaseWall=%v Wall=%v", res.MaxCaseWall, res.Wall)
	}
	if res.Speedup <= 0 {
		t.Fatalf("Speedup=%v", res.Speedup)
	}
	if res.TotalSimWall <= 0 {
		t.Fatalf("TotalSimWall=%v", res.TotalSimWall)
	}
	if want := float64(res.TotalEvents) / res.TotalSimWall.Seconds(); res.EventsPerSec != want {
		t.Fatalf("EventsPerSec=%v want %v", res.EventsPerSec, want)
	}
	for _, r := range res.Results {
		if r.Wall <= 0 {
			t.Fatalf("case %s has no wall time", r.Name)
		}
		if r.Events() == 0 {
			t.Fatalf("case %s has no events", r.Name)
		}
	}
}

func TestSuiteWriteJSON(t *testing.T) {
	suite := &Suite{Name: "jsonl", Cases: []TestCase{
		hammingCase("good", 8),
		{Name: "broken", Source: "void f( {", Func: "f"},
	}}
	res := (&Runner{Workers: 2}).Run(context.Background(), suite, Options{})
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 2 case lines + 1 summary, got %d:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"name":"good"`) || !strings.Contains(lines[0], `"passed":true`) {
		t.Errorf("case line 0: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"name":"broken"`) || !strings.Contains(lines[1], `"passed":false`) ||
		!strings.Contains(lines[1], `"error"`) {
		t.Errorf("case line 1: %s", lines[1])
	}
	if !strings.Contains(lines[2], `"ok":false`) || !strings.Contains(lines[2], `"workers":2`) {
		t.Errorf("summary: %s", lines[2])
	}
	if !strings.Contains(lines[2], `"events_per_sec"`) || !strings.Contains(lines[2], `"sim_wall_ns"`) {
		t.Errorf("summary missing kernel throughput stats: %s", lines[2])
	}
}

// TestSuiteJSONDecodesIntoAPITypes is the suite half of the shared-
// schema acceptance criterion: every JSONL line the suite emits decodes
// losslessly into the versioned internal/api wire types.
func TestSuiteJSONDecodesIntoAPITypes(t *testing.T) {
	suite := &Suite{Name: "apiround", Cases: []TestCase{hammingCase("h8", 8)}}
	res := (&Runner{Workers: 1, Repeat: 2}).Run(context.Background(), suite, Options{})
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var rec api.CaseRecord
	if err := dec.Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if err := api.CheckVersion(rec.SchemaVersion); err != nil {
		t.Fatal(err)
	}
	if rec.SchemaVersion != api.SchemaVersion {
		t.Fatalf("case record schema_version = %d, want %d", rec.SchemaVersion, api.SchemaVersion)
	}
	want := res.CaseRecord(res.Results[0])
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("case record round trip: got %+v, want %+v", rec, want)
	}
	if rec.Replays != 2 || !rec.Passed || rec.Events == 0 {
		t.Fatalf("unexpected case record: %+v", rec)
	}
	var sum api.SuiteRecord
	if err := dec.Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sum, res.SuiteRecord()) {
		t.Fatalf("suite record round trip: got %+v, want %+v", sum, res.SuiteRecord())
	}
	if sum.SchemaVersion != api.SchemaVersion || !sum.OK || sum.Cases != 1 {
		t.Fatalf("unexpected suite record: %+v", sum)
	}
}
