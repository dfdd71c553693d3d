package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/api"
)

func faultSpec() *api.ScenarioSpec {
	return &api.ScenarioSpec{
		Name:  "f",
		Seed:  7,
		Cases: 6,
		Mix: []api.MixEntry{{Family: "erasure", Params: map[string]api.Dist{
			"k":       {Choice: []int{2, 3}},
			"stripes": {Const: intp(2)},
		}}},
		Arrival: &api.ArrivalSpec{Kind: api.ArrivalGamma, Rate: 50, Shape: 2},
		Faults:  &api.FaultPlan{Rate: 0.3, Policy: api.PolicyMustRecover},
	}
}

// TestExpandRangeMatchesFullExpand pins the sweep sharding invariant:
// every [lo, hi) slice of the sequence — with and without a fault plan,
// whose draw count depends on the built cases — matches the same slice
// of a full expansion exactly.
func TestExpandRangeMatchesFullExpand(t *testing.T) {
	for _, spec := range []*api.ScenarioSpec{validSpec(), faultSpec()} {
		sc, err := Load(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		full, err := sc.Expand()
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo <= spec.Cases; lo++ {
			for hi := lo; hi <= spec.Cases; hi++ {
				part, err := sc.ExpandRange(lo, hi)
				if err != nil {
					t.Fatalf("%s: ExpandRange(%d, %d): %v", spec.Name, lo, hi, err)
				}
				if len(part) != hi-lo {
					t.Fatalf("%s: ExpandRange(%d, %d) returned %d cases", spec.Name, lo, hi, len(part))
				}
				for j, cr := range part {
					want := full[lo+j]
					if cr.Index != want.Index || cr.Family != want.Family ||
						cr.Params != want.Params || cr.ArrivalNS != want.ArrivalNS ||
						cr.Policy != want.Policy || !reflect.DeepEqual(cr.Faults, want.Faults) {
						t.Fatalf("%s: ExpandRange(%d, %d)[%d] differs from full expansion:\n%+v\nvs\n%+v",
							spec.Name, lo, hi, j, cr, want)
					}
				}
			}
		}
	}
}

func TestExpandRangeBounds(t *testing.T) {
	sc, err := Load(validSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 2}, {0, sc.Spec.Cases + 1}, {3, 2}} {
		if _, err := sc.ExpandRange(r[0], r[1]); err == nil {
			t.Errorf("ExpandRange(%d, %d) accepted out-of-bounds range", r[0], r[1])
		}
	}
}

// TestExecutorShardedMatchesRun drives the same scenario once through
// Run and once as two shards, each a Stream over its ExpandRange, and
// requires the shard path to reproduce Run's case records and lines
// byte-for-byte and its summary via Summarize — the contract the sweep
// merge is built on.
func TestExecutorShardedMatchesRun(t *testing.T) {
	sc, err := Load(validSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res, err := sc.Run(context.Background(), Options{}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	var recs []api.TraceCase
	var streamed bytes.Buffer
	for _, r := range [][2]int{{0, 2}, {2, 4}} {
		runs, err := sc.ExpandRange(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		shard, err := Stream(context.Background(), runs, Options{}, &streamed)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, shard...)
	}

	if !reflect.DeepEqual(recs, res.Cases) {
		t.Fatalf("sharded Stream records differ from Run:\n%+v\nvs\n%+v", recs, res.Cases)
	}
	lines := bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != 2+len(recs) {
		t.Fatalf("trace has %d lines, want %d", len(lines), 2+len(recs))
	}
	for i, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, lines[1+i]) {
			t.Errorf("case %d re-encodes differently:\n%s\nvs trace line\n%s", i, b, lines[1+i])
		}
	}

	caseLines := bytes.Join(lines[1:len(lines)-1], []byte("\n"))
	if got := bytes.TrimSuffix(streamed.Bytes(), []byte("\n")); !bytes.Equal(got, caseLines) {
		t.Errorf("streamed shard lines differ from the trace's case lines:\n%s\nvs\n%s", got, caseLines)
	}

	sum := Summarize(sc.Spec.Name, sc.Spec.Cases, recs, "")
	if sum != res.Summary {
		t.Errorf("Summarize differs from Run summary:\n%+v\nvs\n%+v", sum, res.Summary)
	}
}
