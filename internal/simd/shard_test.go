package simd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/hades"
	"repro/internal/scenario"
	"repro/internal/simd"
	"repro/internal/sweep"
)

func shardScenarioSpec(seed int64, cases int) *api.ScenarioSpec {
	return &api.ScenarioSpec{
		Name:  "remote-camp",
		Seed:  seed,
		Cases: cases,
		Mix: []api.MixEntry{
			{Family: "hamming", Params: map[string]api.Dist{"words": {Choice: []int{4, 8}}}},
		},
	}
}

// TestShardedSweepEndpointStreamsShard pins the wire shape: the
// response bytes are exactly what a local worker writes to a shard
// file — header, case lines, footer — and pass shard validation.
func TestShardedSweepEndpointStreamsShard(t *testing.T) {
	_, client := testServer(t, simd.Config{Workers: 2})
	spec := sweep.WrapScenario(shardScenarioSpec(5, 4), 2)
	c, err := sweep.Load(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := c.Shards()[1]

	var remote bytes.Buffer
	if err := client.ShardedSweep(context.Background(), api.SweepRequest{Spec: *c.Spec, Shard: 1}, &remote); err != nil {
		t.Fatal(err)
	}
	var local bytes.Buffer
	if err := sweep.ExecuteShard(context.Background(), c, sh, &local, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(remote.Bytes(), local.Bytes()) {
		t.Fatalf("remote shard differs from local execution:\n%s\nvs\n%s", remote.Bytes(), local.Bytes())
	}

	dir := t.TempDir()
	path := sweep.ShardPath(dir, 1)
	if err := os.WriteFile(path, remote.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err := sweep.InspectShard(path, c.ShardHeader(sh))
	if err != nil {
		t.Fatal(err)
	}
	if info.State != sweep.StateValid {
		t.Fatalf("remote shard classified %s (%s), want valid", info.State, info.Reason)
	}
}

// TestRemoteWorkerCampaign runs the whole coordinator against a remote
// simd worker and pins the merged bytes to the single-process run —
// the distributed path meets the same determinism bar as the local
// ones. The erasure input is a must-recover fault campaign judged by
// the MDS oracle: recorded by the service, it must inject and recover
// faults and replay locally with no diff.
func TestRemoteWorkerCampaign(t *testing.T) {
	_, client := testServer(t, simd.Config{Workers: 2})
	erasure, ok := scenario.ExampleSpec("erasure-recover.json")
	if !ok {
		t.Fatal("no embedded erasure-recover spec")
	}
	erasureSpec, err := api.DecodeScenarioSpec(bytes.NewReader(erasure))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		spec   *api.ScenarioSpec
		faults bool
	}{
		{"hamming", shardScenarioSpec(6, 6), false},
		{"erasure-recover", erasureSpec, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := scenario.Load(tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := sc.Run(context.Background(), scenario.Options{}, &want); err != nil {
				t.Fatal(err)
			}

			c, err := sweep.Load(sweep.WrapScenario(tc.spec, 3), nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sweep.Run(context.Background(), c, sweep.Options{
				Workers: 2,
				OutDir:  t.TempDir(),
				Worker:  &simd.ShardWorker{Client: client},
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(res.Out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatal("remote-worker campaign differs from single-process run")
			}
			for _, st := range res.Shards {
				if st.Worker != "remote" {
					t.Errorf("shard %d worker tag %q, want remote", st.Shard, st.Worker)
				}
			}
			if res.Stats.CasesExecuted != int64(c.Cases()) {
				t.Errorf("stats count %d cases executed, want the campaign's %d", res.Stats.CasesExecuted, c.Cases())
			}

			tr, err := scenario.ReadTrace(bytes.NewReader(got))
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults && (tr.Summary.FaultsInjected == 0 || tr.Summary.Recovered == 0) {
				t.Fatalf("fault campaign injected or recovered nothing: %+v", tr.Summary)
			}
			rep, err := scenario.Replay(context.Background(), tr, scenario.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if diffs := scenario.CompareTraces(tr.Cases, rep.Cases, true); len(diffs) != 0 {
				t.Fatalf("local replay diverged from the remote trace: %v", diffs)
			}
		})
	}
}

// TestShardedSweepValidation keeps spec and shard errors on the 4xx
// surface.
func TestShardedSweepValidation(t *testing.T) {
	ts, client := testServer(t, simd.Config{Workers: 1})
	oversized := sweep.WrapScenario(shardScenarioSpec(7, 4097), 1) // one shard over the 4,096-case cap

	post := func(body string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+simd.PathShardedSweep, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// A two-case scenario is valid; each 400 row breaks one thing.
	scen := func(req, spec, mix string) string {
		return fmt.Sprintf(`{%s"spec":{"name":"s","scenario":{"name":"s",%s"cases":2,"mix":[%s]}},"shard":0}`,
			req, spec, mix)
	}
	hamming := `{"family":"hamming","weight":1,"params":{"words":8}}`
	for _, row := range []struct {
		what, body string
		want       int
	}{
		{"valid scenario", scen("", "", hamming), http.StatusOK},
		{"malformed body", `{`, http.StatusBadRequest},
		{"modeless spec", `{"spec":{"name":"x"},"shard":0}`, http.StatusBadRequest},
		{"unknown family", `{"spec":{"name":"x","grid":{"workloads":["nope"],"seed_to":1}},"shard":0}`, http.StatusBadRequest},
		{"unknown scenario backend", scen("", `"backend":"no-such-backend",`, hamming), http.StatusBadRequest},
		{"empty scenario mix", scen("", "", ""), http.StatusBadRequest},
		{"request schema_version 99", scen(`"schema_version":99,`, "", hamming), http.StatusBadRequest},
		{"scenario schema_version 99", scen("", `"schema_version":99,`, hamming), http.StatusBadRequest},
	} {
		if code := post(row.body); code != row.want {
			t.Errorf("%s: %d, want %d", row.what, code, row.want)
		}
	}
	// A grid over the scenario case cap, however small the shard.
	big := fmt.Sprintf(`{"spec":{"name":"big","shards":%d,"grid":{"workloads":["hamming,words=8"],"seed_to":%d}},"shard":7}`,
		scenario.MaxCases+1, scenario.MaxCases+1)
	if code := post(big); code != http.StatusBadRequest {
		t.Errorf("grid over the case cap: %d, want 400", code)
	}

	// Shard index outside the layout.
	c, err := sweep.Load(sweep.WrapScenario(shardScenarioSpec(7, 4), 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := client.ShardedSweep(context.Background(), api.SweepRequest{Spec: *c.Spec, Shard: 9}, &buf); err == nil {
		t.Error("out-of-layout shard index accepted")
	}

	// Shard bigger than the server's cap.
	cg, err := sweep.Load(oversized, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = client.ShardedSweep(context.Background(), api.SweepRequest{Spec: *cg.Spec, Shard: 0}, &buf)
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized shard: %v, want per-shard cap error", err)
	}

	// GET is not a shard submission.
	resp, err := ts.Client().Get(ts.URL + simd.PathShardedSweep)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d, want 405", resp.StatusCode)
	}
}

// TestRemoteErrorClassification pins the transport-vs-4xx contract: a
// 400-class spec rejection is permanent — retrying on another server
// cannot help and must not burn the shard's retry budget — while a
// refused connection is the endpoint's fault and requeues for free.
func TestRemoteErrorClassification(t *testing.T) {
	// A shard over the server's 4,096-case per-shard cap draws an HTTP
	// 400.
	_, capped := testServer(t, simd.Config{Workers: 1})
	c, err := sweep.Load(sweep.WrapScenario(shardScenarioSpec(11, 4097), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	w := &simd.ShardWorker{Client: capped}
	err = w.RunShard(context.Background(), c, c.Shards()[0], sweep.ShardPath(dir, 0))
	if !sweep.IsPermanent(err) {
		t.Errorf("HTTP 400 classified %v, want permanent", err)
	}
	if sweep.IsEndpointFault(err) {
		t.Errorf("HTTP 400 also classified as endpoint fault: %v", err)
	}
	var se *simd.StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Errorf("status not preserved through classification: %v", err)
	}

	// A connection nobody answers is the endpoint's problem.
	dead := &simd.ShardWorker{Client: simd.NewClient("http://127.0.0.1:1", nil)}
	err = dead.RunShard(context.Background(), c, c.Shards()[0], sweep.ShardPath(dir, 0))
	if !sweep.IsEndpointFault(err) {
		t.Errorf("refused connection classified %v, want endpoint fault", err)
	}
	if sweep.IsPermanent(err) {
		t.Errorf("refused connection also classified as permanent: %v", err)
	}

	// End to end: the coordinator fails the shard on the first attempt
	// with the whole retry budget unspent.
	res, err := sweep.Run(context.Background(), c, sweep.Options{
		OutDir:      t.TempDir(),
		Workers:     1,
		Retries:     3,
		MaxFailures: 1,
		Worker:      w,
	})
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("capped campaign: err=%v, want incomplete-pass error", err)
	}
	if got := res.Shards[0].Attempts; got != 1 {
		t.Errorf("attempts=%d, want 1: a 400 must not be retried", got)
	}
	if res.Stats.Retried != 0 {
		t.Errorf("retried=%d, want 0", res.Stats.Retried)
	}
}

// TestFleetRoutesAroundDeadRemote runs a two-server fleet where one
// endpoint is unreachable: the campaign completes on the live server,
// merges byte-identically, and the dead endpoint costs requeues —
// never shard retries.
func TestFleetRoutesAroundDeadRemote(t *testing.T) {
	_, live := testServer(t, simd.Config{Workers: 2})
	spec := shardScenarioSpec(12, 6)
	sc, err := scenario.Load(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := sc.Run(context.Background(), scenario.Options{}, &want); err != nil {
		t.Fatal(err)
	}

	c, err := sweep.Load(sweep.WrapScenario(spec, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	fleet := []*simd.Client{live, simd.NewClient("http://127.0.0.1:1", nil)}
	res, err := sweep.Run(context.Background(), c, sweep.Options{
		OutDir:      t.TempDir(),
		MaxFailures: 1,
		Endpoints:   simd.Endpoints(fleet, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(res.Out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("fleet merge with a dead endpoint differs from single-process run")
	}
	if res.Stats.Retried != 0 {
		t.Errorf("retried=%d, want 0: the dead server must not burn the retry budget", res.Stats.Retried)
	}
	if res.Stats.Requeues == 0 {
		t.Error("requeues=0, want the dead server's shards requeued on the live one")
	}
	var deadHealth *api.WorkerHealth
	for i := range res.Stats.WorkerHealth {
		if strings.Contains(res.Stats.WorkerHealth[i].Name, "127.0.0.1:1") {
			deadHealth = &res.Stats.WorkerHealth[i]
		}
	}
	if deadHealth == nil {
		t.Fatal("dead endpoint missing from worker health")
	}
	if deadHealth.Failures == 0 {
		t.Error("dead endpoint reports no failures")
	}
}

// TestServerCountsSweepShards pins the ShardWorker health signal on
// the server side: /statsz reports how many shards and cases the
// server has executed for coordinators.
func TestServerCountsSweepShards(t *testing.T) {
	_, client := testServer(t, simd.Config{Workers: 1})
	c, err := sweep.Load(sweep.WrapScenario(shardScenarioSpec(13, 4), 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for i := 0; i < 2; i++ {
		buf.Reset()
		if err := client.ShardedSweep(context.Background(), api.SweepRequest{Spec: *c.Spec, Shard: i}, &buf); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.SweepShards != 2 || st.SweepShardCases != 4 {
		t.Errorf("sweep counters = %d shards / %d cases, want 2/4", st.SweepShards, st.SweepShardCases)
	}
}

// TestShardedSweepRejectsWideScenario pins the width limit on the
// sharded endpoint: sweep.Load runs the scenario's width check, so a
// spec wider than the kernel's words draws a 400 before any shard byte
// is streamed.
func TestShardedSweepRejectsWideScenario(t *testing.T) {
	ts, _ := testServer(t, simd.Config{Workers: 1})
	spec := shardScenarioSpec(3, 2)
	spec.Width = hades.MaxWidth + 1
	body, err := json.Marshal(api.SweepRequest{Spec: *sweep.WrapScenario(spec, 1)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+simd.PathShardedSweep, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "width 65") {
		t.Fatalf("status %d body %q, want 400 naming width 65", resp.StatusCode, msg)
	}
}
