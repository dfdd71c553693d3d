package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/flow"
)

// Record a faulted erasure campaign once, then replay the trace on
// every registered backend: the deterministic identity set — resolved
// params, arrival times, fault injections, verdicts, fault outcomes,
// per-config cycles and final states, memory and sink digests — must be
// bit-identical everywhere (strictly so, events included, on the
// recording backend itself).
func TestReplayBitIdenticalOnEveryBackend(t *testing.T) {
	res, buf := runExample(t, "erasure-recover.json", Options{})
	if !res.OK() {
		t.Fatalf("recording run not ok: %+v", res.Summary)
	}
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range flow.BackendNames() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			var rbuf bytes.Buffer
			rep, err := Replay(context.Background(), tr, Options{Backend: backend}, &rbuf)
			if err != nil {
				t.Fatal(err)
			}
			strict := backend == tr.Header.Backend
			if diffs := CompareTraces(tr.Cases, rep.Cases, strict); len(diffs) != 0 {
				t.Fatalf("replay on %s differs from recording:\n%s", backend, strings.Join(diffs, "\n"))
			}
			if strict && !bytes.Equal(buf.Bytes(), rbuf.Bytes()) {
				t.Fatalf("same-backend replay trace is not byte-identical")
			}
			if !rep.OK() {
				t.Fatalf("replay summary not ok: %+v", rep.Summary)
			}
		})
	}
}

// The mixed campaign (no faults) must also replay identically across
// backends — the scenario-level restatement of the cross-backend
// equivalence guarantee.
func TestMixedReplayAcrossBackends(t *testing.T) {
	res, buf := runExample(t, "mixed-poisson.json", Options{})
	if !res.OK() {
		t.Fatalf("recording run not ok: %+v", res.Summary)
	}
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range flow.BackendNames() {
		rep, err := Replay(context.Background(), tr, Options{Backend: backend}, nil)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if diffs := CompareTraces(tr.Cases, rep.Cases, backend == tr.Header.Backend); len(diffs) != 0 {
			t.Fatalf("%s: %s", backend, strings.Join(diffs, "\n"))
		}
	}
}

// A counterfactual backend swap re-runs the same materialized cases on
// another backend and must keep every verdict, fault outcome and final
// memory identical.
func TestCounterfactualBackendSwap(t *testing.T) {
	_, buf := runExample(t, "erasure-fail.json", Options{})
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range flow.BackendNames() {
		if backend == tr.Header.Backend {
			continue
		}
		cf, err := Counterfactual(context.Background(), tr, Options{}, Substitution{Backend: backend}, nil)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if !cf.VerdictsSame || !cf.OutcomesSame || !cf.MemoriesSame {
			var rep strings.Builder
			cf.Report(&rep)
			t.Fatalf("backend swap to %s changed outcomes:\n%s", backend, rep.String())
		}
	}
}

// The faults-off counterfactual answers "what would this campaign have
// done without the injected flips": every case goes green and the
// final memories move off the faulted baseline wherever a fault had
// propagated.
func TestCounterfactualFaultsOff(t *testing.T) {
	_, buf := runExample(t, "erasure-fail.json", Options{})
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cf, err := Counterfactual(context.Background(), tr, Options{}, Substitution{FaultsOff: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Variant.Header.FaultsOff != true {
		t.Fatal("variant header must mark faults off")
	}
	if cf.Variant.Summary.FaultsInjected != 0 {
		t.Fatalf("faults-off run still injected: %+v", cf.Variant.Summary)
	}
	if !cf.Variant.OK() {
		t.Fatalf("faults-off run must be green: %+v", cf.Variant.Summary)
	}
	if cf.MemoriesSame {
		t.Fatal("must-fail faults propagated, so disabling them must change the final memories")
	}
	for _, p := range cf.Pairs {
		if p.VarOutcome != "" {
			t.Fatalf("case %d: outcome recorded without faults: %q", p.Index, p.VarOutcome)
		}
	}
	var rep strings.Builder
	cf.Report(&rep)
	if !strings.Contains(rep.String(), "faults=off") {
		t.Fatalf("report does not name the substitution:\n%s", rep.String())
	}
}

// A recorded trace must survive a file round trip and reject malformed
// streams.
func TestTraceRoundTripAndErrors(t *testing.T) {
	res, buf := runExample(t, "erasure-fail.json", Options{})
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := tr.Write(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), out.Bytes()) {
		t.Fatal("trace write-read-write is not byte-identical")
	}
	if tr.Header.Seed != res.Header.Seed || len(tr.Cases) != len(res.Cases) {
		t.Fatalf("round trip lost records: %+v", tr.Header)
	}

	if _, err := ReadTrace(strings.NewReader("")); err == nil {
		t.Error("empty trace must error")
	}
	if _, err := ReadTrace(strings.NewReader(`{"record":"case"}`)); err == nil {
		t.Error("case before header must error")
	}
	if _, err := ReadTrace(strings.NewReader(`{"record":"scenario","schema_version":99}`)); err == nil {
		t.Error("future schema version must error")
	}
	if _, err := ReadTrace(strings.NewReader(`{"record":"weird"}`)); err == nil {
		t.Error("unknown record must error")
	}
}

// Tampered traces must be rejected by the replay-path fault validation.
func TestReplayRejectsTamperedTrace(t *testing.T) {
	_, buf := runExample(t, "erasure-fail.json", Options{})
	tr, err := ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tr.Cases[0].Faults[0].Before++
	if _, err := Rebuild(tr); err == nil {
		t.Fatal("tampered fault record must fail rebuild")
	}

	tr2, _ := ReadTrace(bytes.NewReader(buf.Bytes()))
	tr2.Cases[0].Params = "k=4,stripes=12,zzz=1"
	if _, err := Rebuild(tr2); err == nil {
		t.Fatal("unknown param in trace must fail rebuild")
	}
}
