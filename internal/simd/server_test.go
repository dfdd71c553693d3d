package simd_test

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/simd"
)

func testServer(t *testing.T, cfg simd.Config) (*httptest.Server, *simd.Client) {
	t.Helper()
	ts := httptest.NewServer(simd.New(cfg))
	t.Cleanup(ts.Close)
	return ts, simd.NewClient(ts.URL, ts.Client())
}

func hammingReq(words int) api.Request {
	return api.NewRequest("hamming", map[string]int{"words": words})
}

// waitInFlight polls /statsz until the server reports at least n
// requests in flight.
func waitInFlight(t *testing.T, c *simd.Client, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlight >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server never reached %d requests in flight", n)
}

// TestVerifyStreamsNDJSON pins the wire shape end to end: a verify
// request answers an NDJSON stream whose lines decode into versioned
// api.RunRecord values — per-configuration records first, one summary
// last — and a second identical request hits the pooled session.
func TestVerifyStreamsNDJSON(t *testing.T) {
	ts, client := testServer(t, simd.Config{})

	// Raw HTTP first: the bytes on the wire, not the client's view.
	resp, err := ts.Client().Post(ts.URL+simd.PathVerify, "application/json",
		strings.NewReader(`{"workload":"hamming","params":{"words":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	var recs []api.RunRecord
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var rec api.RunRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if err := api.CheckVersion(rec.SchemaVersion); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if len(recs) < 2 {
		t.Fatalf("stream too short: %+v", recs)
	}
	sum := recs[len(recs)-1]
	if sum.Record != api.RecordSummary {
		t.Fatalf("last record is %q, want summary", sum.Record)
	}
	for i, rec := range recs[:len(recs)-1] {
		if rec.Record != api.RecordConfig || rec.Config == "" || rec.Round != 1 || !rec.Completed {
			t.Fatalf("config record %d: %+v", i, rec)
		}
	}
	if sum.Kind != api.KindVerify || sum.Workload != "hamming" || !sum.Verified || !sum.Passed {
		t.Fatalf("summary: %+v", sum)
	}
	if !strings.Contains(sum.Params, "words=8") || !strings.Contains(sum.Params, "seed=") {
		t.Fatalf("params not canonical: %q", sum.Params)
	}
	if sum.PoolHit {
		t.Fatal("first request cannot be a pool hit")
	}
	if sum.Configs != uint64(len(recs)-1) || sum.Elaborations != sum.Configs || sum.Resets != 0 {
		t.Fatalf("first-request counters: %+v", sum)
	}

	// Same request through the client: pool hit, no new elaborations.
	res, err := client.Verify(context.Background(), hammingReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Summary.PoolHit {
		t.Fatal("second request must hit the pool")
	}
	if res.Summary.Elaborations != sum.Elaborations || res.Summary.Resets != 1 {
		t.Fatalf("pool hit must reset-and-replay, not re-elaborate: %+v", res.Summary)
	}
}

// TestSweep32Concurrent is the load acceptance test: 32 concurrent
// 2-round verify requests against one pooled session, all served, all
// verified, with exactly one elaboration per configuration — every
// other round a reset-and-replay. Run with -race in CI.
func TestSweep32Concurrent(t *testing.T) {
	const clients = 32
	ts, client := testServer(t, simd.Config{
		Workers:         clients,
		MaxQueue:        clients,
		SessionInFlight: 2 * clients,
	})
	_ = ts

	// Warm the pool so every concurrent request is a hit.
	warm, err := client.Verify(context.Background(), hammingReq(8))
	if err != nil {
		t.Fatal(err)
	}
	cfgCount := warm.Summary.Configs

	var wg sync.WaitGroup
	results := make([]*simd.Result, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.Verify(context.Background(), hammingReq(8).WithRounds(2))
		}(i)
	}
	wg.Wait()

	totalRounds := 1 // the warm-up
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		sum := results[i].Summary
		if !sum.PoolHit || !sum.Verified || !sum.Passed || sum.Rounds != 2 {
			t.Fatalf("client %d summary: %+v", i, sum)
		}
		if sum.Elaborations != cfgCount {
			t.Fatalf("client %d: %d elaborations, want %d (pool hits must skip re-elaboration)",
				i, sum.Elaborations, cfgCount)
		}
		if got := uint64(len(results[i].Configs)); got != 2*cfgCount {
			t.Fatalf("client %d: %d config records, want %d", i, got, 2*cfgCount)
		}
		totalRounds += 2
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolMisses != 1 || st.PoolHits != clients {
		t.Fatalf("pool counters: %+v", st)
	}
	if st.Elaborations != cfgCount {
		t.Fatalf("server elaborated %d times for %d rounds; the session pool is not amortizing", st.Elaborations, totalRounds)
	}
	if want := uint64(totalRounds - 1); st.Resets/cfgCount != want {
		t.Fatalf("resets %d (per config %d), want %d per config", st.Resets, st.Resets/cfgCount, want)
	}
	if st.Rounds != uint64(totalRounds) || st.Requests != clients+1 || st.Rejected != 0 {
		t.Fatalf("server stats: %+v", st)
	}
	if len(st.SessionsDetail) != 1 || st.SessionsDetail[0].Runs != uint64(totalRounds) {
		t.Fatalf("sessions detail: %+v", st.SessionsDetail)
	}
}

// TestRateLimitSheds429 pins the token-bucket gate: past the burst, the
// server answers 429 with a Retry-After header, and the client
// surfaces it as a typed OverloadedError.
func TestRateLimitSheds429(t *testing.T) {
	ts, client := testServer(t, simd.Config{Rate: 1e-9, Burst: 1})

	if _, err := client.Verify(context.Background(), hammingReq(8)); err != nil {
		t.Fatalf("the burst token must admit the first request: %v", err)
	}
	_, err := client.Verify(context.Background(), hammingReq(8))
	var over *simd.OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("want OverloadedError, got %v", err)
	}
	if over.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %s", over.RetryAfter)
	}

	// The raw reply carries the header CI's smoke test greps for.
	resp, err := ts.Client().Post(ts.URL+simd.PathVerify, "application/json",
		strings.NewReader(`{"workload":"hamming"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected < 2 || st.Requests != 1 {
		t.Fatalf("stats after shedding: %+v", st)
	}
}

// TestQueueFullSheds429 pins the bounded-queue gate: with one worker
// and no queue, a request arriving while another executes is shed with
// 429 instead of waiting.
func TestQueueFullSheds429(t *testing.T) {
	_, client := testServer(t, simd.Config{Workers: 1, MaxQueue: -1}) // -1: queue of zero

	done := make(chan error, 1)
	go func() {
		_, err := client.Verify(context.Background(), hammingReq(64).WithRounds(300))
		done <- err
	}()
	waitInFlight(t, client, 1)

	_, err := client.Verify(context.Background(), hammingReq(8))
	var over *simd.OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("want OverloadedError while the only ticket is held, got %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("the long request must still finish: %v", err)
	}
	// Capacity is back.
	if _, err := client.Verify(context.Background(), hammingReq(8)); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestSessionInFlightSheds429 pins the per-session gate: one slot,
// several contenders on the same key — at least one is shed with 429
// and at least one is served.
func TestSessionInFlightSheds429(t *testing.T) {
	const contenders = 8
	_, client := testServer(t, simd.Config{
		Workers:         contenders + 1,
		SessionInFlight: 1,
	})
	if _, err := client.Verify(context.Background(), hammingReq(8)); err != nil {
		t.Fatal(err) // warm the pool so contenders skip prepare
	}

	var wg sync.WaitGroup
	errs := make([]error, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = client.Verify(context.Background(), hammingReq(8).WithRounds(20))
		}(i)
	}
	wg.Wait()

	served, shed := 0, 0
	for i, err := range errs {
		var over *simd.OverloadedError
		switch {
		case err == nil:
			served++
		case errors.As(err, &over):
			shed++
		default:
			t.Fatalf("contender %d: unexpected error %v", i, err)
		}
	}
	if served == 0 || shed == 0 {
		t.Fatalf("served=%d shed=%d: want both admission and shedding on a single-slot session", served, shed)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != int64(shed) {
		t.Errorf("/statsz rejected=%d, want %d (each shed request counts once)", st.Rejected, shed)
	}
}

// TestPoolEvictionReprepares pins the LRU: with room for one session, a
// second key evicts the first, and revisiting the first key re-prepares
// from scratch (a miss with fresh elaboration counters, not a hit).
func TestPoolEvictionReprepares(t *testing.T) {
	_, client := testServer(t, simd.Config{MaxSessions: 1})

	first, err := client.Verify(context.Background(), hammingReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Verify(context.Background(), hammingReq(16)); err != nil {
		t.Fatal(err)
	}
	again, err := client.Verify(context.Background(), hammingReq(8))
	if err != nil {
		t.Fatal(err)
	}
	if again.Summary.PoolHit {
		t.Fatal("evicted key must be a miss")
	}
	if again.Summary.Elaborations != first.Summary.Elaborations || again.Summary.Resets != 0 {
		t.Fatalf("re-prepared session counters: %+v (first: %+v)", again.Summary, first.Summary)
	}

	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != 1 || st.PoolMisses != 3 || st.PoolHits != 0 || st.Evictions != 2 {
		t.Fatalf("pool stats: %+v", st)
	}
}

// TestGracefulDrainFinishesInFlight pins shutdown semantics: Shutdown
// on the HTTP server lets a streaming request run to its summary record
// instead of cutting the connection.
func TestGracefulDrainFinishesInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: simd.New(simd.Config{})}
	serveDone := make(chan error, 1)
	go func() { serveDone <- hs.Serve(ln) }()
	client := simd.NewClient("http://"+ln.Addr().String(), nil)

	reqDone := make(chan struct {
		res *simd.Result
		err error
	}, 1)
	go func() {
		res, err := client.Verify(context.Background(), hammingReq(64).WithRounds(150))
		reqDone <- struct {
			res *simd.Result
			err error
		}{res, err}
	}()
	waitInFlight(t, client, 1)

	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		t.Fatalf("drain did not finish the in-flight request: %v", err)
	}
	got := <-reqDone
	if got.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", got.err)
	}
	if got.res.Summary.Rounds != 150 || !got.res.Summary.Passed {
		t.Fatalf("drained request summary: %+v", got.res.Summary)
	}
	if err := <-serveDone; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
}

// TestBenchKindSkipsVerify: /v1/bench rounds carry throughput but no
// verdict.
func TestBenchKindSkipsVerify(t *testing.T) {
	_, client := testServer(t, simd.Config{})
	res, err := client.Bench(context.Background(), hammingReq(8).WithRounds(3))
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary
	if sum.Kind != api.KindBench || sum.Verified || sum.Passed {
		t.Fatalf("bench summary: %+v", sum)
	}
	if sum.Rounds != 3 || sum.Events == 0 || sum.EventsPerSec <= 0 {
		t.Fatalf("bench throughput: %+v", sum)
	}
}

// TestInlineSpecAndParamOverride: the request Workload field speaks the
// CLI spec syntax, and explicit Params win over inline values — both
// spellings land on the same pooled session.
func TestInlineSpecAndParamOverride(t *testing.T) {
	_, client := testServer(t, simd.Config{})
	a, err := client.Verify(context.Background(), api.Request{Workload: "hamming,words=16"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := client.Verify(context.Background(), api.Request{
		Workload: "hamming,words=8",
		Params:   map[string]int{"words": 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Params != b.Summary.Params {
		t.Fatalf("canonical params differ: %q vs %q", a.Summary.Params, b.Summary.Params)
	}
	if !b.Summary.PoolHit {
		t.Fatal("override spelling must land on the pooled session")
	}
}

// TestRequestValidation walks the 4xx surface.
func TestRequestValidation(t *testing.T) {
	ts, _ := testServer(t, simd.Config{})
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	cases := []struct {
		path, body string
		want       int
	}{
		{simd.PathVerify, `{`, http.StatusBadRequest},
		{simd.PathVerify, `{"workload":""}`, http.StatusBadRequest},
		{simd.PathVerify, `{"workload":"no-such-family"}`, http.StatusNotFound},
		{simd.PathVerify, `{"workload":"hamming","params":{"bogus":1}}`, http.StatusBadRequest},
		{simd.PathVerify, `{"workload":"hamming","params":{"words":-5}}`, http.StatusBadRequest},
		{simd.PathVerify, `{"workload":"hamming","backend":"no-such-backend"}`, http.StatusBadRequest},
		{simd.PathVerify, `{"workload":"hamming","kind":"sweep"}`, http.StatusBadRequest},
		{simd.PathVerify, `{"workload":"hamming","rounds":100000}`, http.StatusBadRequest},
		{simd.PathBench, `{"workload":"hamming","schema_version":99}`, http.StatusBadRequest},
		{"/v1/sweep", `{"workload":"hamming","rounds":4}`, http.StatusNotFound}, // a multi-round verify is /v1/verify
	}
	for _, c := range cases {
		if resp := post(c.path, c.body); resp.StatusCode != c.want {
			t.Errorf("POST %s %s: status %d, want %d", c.path, c.body, resp.StatusCode, c.want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + simd.PathVerify)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET run endpoint: status %d", resp.StatusCode)
	}
	if resp, err := ts.Client().Get(ts.URL + simd.PathHealth); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %v %v", err, resp)
	} else {
		resp.Body.Close()
	}
}

// TestStatszShape: /statsz decodes into the versioned api.ServerStats
// with sane lifecycle counters even on an idle server.
func TestStatszShape(t *testing.T) {
	_, client := testServer(t, simd.Config{MaxSessions: 3})
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.SchemaVersion != api.SchemaVersion || st.UptimeNS <= 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MaxSessions != 3 || st.Sessions != 0 || st.Requests != 0 {
		t.Fatalf("idle stats: %+v", st)
	}
	if _, err := client.Verify(context.Background(), hammingReq(8)); err != nil {
		t.Fatal(err)
	}
	st, err = client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Sessions != 1 || st.Rounds != 1 || st.Events == 0 || st.Configs == 0 {
		t.Fatalf("post-request stats: %+v", st)
	}
}

// TestBackendsEndpoint: GET /v1/backends serves the full descriptor
// catalog with the server's effective default named, and the /statsz
// payload carries the same catalog.
func TestBackendsEndpoint(t *testing.T) {
	_, client := testServer(t, simd.Config{Backend: "compiled"})
	br, err := client.Backends(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if br.SchemaVersion != api.SchemaVersion {
		t.Fatalf("backends schema version = %d", br.SchemaVersion)
	}
	if br.Default != "compiled" {
		t.Fatalf("default backend = %q, want compiled", br.Default)
	}
	byName := map[string]api.BackendInfo{}
	for _, b := range br.Backends {
		if b.Name == "" || b.Kind == "" || b.Desc == "" {
			t.Fatalf("incomplete descriptor: %+v", b)
		}
		byName[b.Name] = b
	}
	if got := byName["twolevel"]; got.Kind != "event" || got.SupportsGang {
		t.Fatalf("twolevel descriptor: %+v", got)
	}
	if got := byName["compiled"]; got.Kind != "cycle" || !got.SupportsGang {
		t.Fatalf("compiled descriptor: %+v", got)
	}
	st, err := client.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != "compiled" || len(st.Backends) != len(br.Backends) {
		t.Fatalf("statsz backend catalog: backend=%q backends=%d want %d",
			st.Backend, len(st.Backends), len(br.Backends))
	}
}
