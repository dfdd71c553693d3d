package api

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestBaselineRoundTrip decodes every checked-in bench baseline file
// into the api type, re-encodes it, and requires every original field
// to survive byte-for-byte (as decoded JSON values): migrating the
// bench output onto internal/api must not change the meaning of a
// single existing field, or the CI perf gates would silently compare
// incomparable numbers.
func TestBaselineRoundTrip(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "*", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no checked-in baselines found under bench/baseline/")
	}
	for _, path := range matches {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var r BenchResult
		if err := json.Unmarshal(doc, &r); err != nil {
			t.Fatalf("%s: decode into api.BenchResult: %v", path, err)
		}
		if err := CheckVersion(r.SchemaVersion); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		var orig, round map[string]any
		if err := json.Unmarshal(doc, &orig); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(out, &round); err != nil {
			t.Fatal(err)
		}
		for key, want := range orig {
			got, ok := round[key]
			if !ok {
				t.Errorf("%s: field %q lost in round trip", path, key)
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: field %q changed in round trip: %v -> %v", path, key, want, got)
			}
		}
		for key := range round {
			if _, ok := orig[key]; !ok {
				t.Errorf("%s: round trip invented field %q (baselines must stay stable)", path, key)
			}
		}
	}
}

func TestCheckVersion(t *testing.T) {
	for _, v := range []int{0, SchemaVersion} {
		if err := CheckVersion(v); err != nil {
			t.Errorf("CheckVersion(%d) = %v, want nil", v, err)
		}
	}
	for _, v := range []int{-1, SchemaVersion + 1} {
		if err := CheckVersion(v); err == nil {
			t.Errorf("CheckVersion(%d) accepted", v)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	good := NewRequest("hamming", map[string]int{"words": 8}).WithBackend("twolevel").WithRounds(4)
	if good.SchemaVersion != SchemaVersion {
		t.Fatalf("NewRequest version = %d", good.SchemaVersion)
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	bad := []Request{
		{SchemaVersion: SchemaVersion + 1, Workload: "hamming"},
		{Workload: ""},
		{Workload: "hamming", Rounds: -1},
		{Workload: "hamming", Kind: "explode"},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d accepted: %+v", i, r)
		}
	}
}

func TestDecodeRequestRoundTrip(t *testing.T) {
	req := NewRequest("fir", map[string]int{"n": 256, "taps": 8}).WithRounds(3)
	doc, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Fatalf("request round trip: got %+v, want %+v", got, req)
	}
	if _, err := DecodeRequest(strings.NewReader("{")); err == nil {
		t.Fatal("truncated request body accepted")
	}
	if _, err := DecodeRequest(strings.NewReader(`{"workload":""}`)); err == nil {
		t.Fatal("empty workload accepted")
	}
}

// TestRunRecordRoundTrip pins that both NDJSON record shapes survive an
// encode/decode cycle with the version stamped — the decode side of the
// acceptance criterion that simd responses use the shared schema.
func TestRunRecordRoundTrip(t *testing.T) {
	records := []RunRecord{
		{
			SchemaVersion: SchemaVersion, Record: RecordConfig,
			Round: 2, Config: "cfg0", Cycles: 128, Events: 4096,
			WallNS: 1e6, Kernel: "twolevel", Completed: true,
		},
		{
			SchemaVersion: SchemaVersion, Record: RecordSummary,
			Kind: KindVerify, Workload: "hamming", Params: "seed=1,words=8",
			Backend: "twolevel", Rounds: 4, Configs: 4, Events: 16384,
			WallNS: 4e6, EventsPerSec: 4096e3, ConfigsPerSec: 1e3,
			Verified: true, Passed: true, PoolHit: true,
			Elaborations: 1, Resets: 3,
		},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	dec := json.NewDecoder(&buf)
	for i, want := range records {
		var got RunRecord
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d round trip: got %+v, want %+v", i, got, want)
		}
	}
}

func TestServerStatsRoundTrip(t *testing.T) {
	in := ServerStats{
		SchemaVersion: SchemaVersion, UptimeNS: 5e9,
		Requests: 40, Rejected: 2, Failed: 1, InFlight: 3,
		Sessions: 2, MaxSessions: 16, PoolHits: 38, PoolMisses: 2,
		Elaborations: 3, Resets: 120, Events: 1 << 20, Configs: 123, Rounds: 40,
		EventsPerSec: 2e5, ConfigsPerSec: 24.6, AllocsPerConfig: 27,
		SessionsDetail: []SessionStats{{Key: "hamming(seed=1,words=8)@twolevel", Runs: 38, Elaborations: 1, Resets: 37}},
		Backend:        "twolevel",
		Backends: []BackendInfo{
			{Name: "twolevel", Kind: "event", Desc: "two-level event queue"},
			{Name: "compiled", Kind: "cycle", Desc: "levelized engine", SupportsGang: true},
		},
	}
	doc, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ServerStats
	if err := json.Unmarshal(doc, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("stats round trip: got %+v, want %+v", out, in)
	}
}

// TestBackendsResponseRoundTrip pins the /v1/backends payload: an
// additive schema-1 object whose descriptors survive the cycle intact.
func TestBackendsResponseRoundTrip(t *testing.T) {
	in := BackendsResponse{
		SchemaVersion: SchemaVersion,
		Default:       "twolevel",
		Backends: []BackendInfo{
			{Name: "twolevel", Kind: "event", Desc: "two-level event queue"},
			{Name: "compiled", Kind: "cycle", Desc: "levelized engine", SupportsGang: true},
		},
	}
	doc, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out BackendsResponse
	if err := json.Unmarshal(doc, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("backends round trip: got %+v, want %+v", out, in)
	}
	if err := CheckVersion(out.SchemaVersion); err != nil {
		t.Fatal(err)
	}
}
