package repro_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
)

// TestPublicAPI exercises the root re-exports of the flow pipeline —
// the documented entry point (examples/quickstart) must keep working
// against exactly this surface.
func TestPublicAPI(t *testing.T) {
	src := repro.Source{
		Name:       "pub",
		Text:       `void twice(int[] a, int n) { for (int i = 0; i < n; i = i + 1) { a[i] = 2 * a[i]; } }`,
		Func:       "twice",
		ArraySizes: map[string]int{"a": 4},
		ScalarArgs: map[string]int64{"n": 4},
		Inputs:     map[string][]int64{"a": {1, 2, 3, 4}},
	}
	var progress strings.Builder
	out, err := repro.Run(src,
		repro.WithBackend(repro.DefaultBackend),
		repro.WithClock(repro.DefaultClockPeriod),
		repro.WithObserver(repro.NewProgressObserver(&progress)),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !out.OK() {
		t.Fatalf("verdict: %+v", out.Verdict)
	}
	if got := out.Sim.Memories["a"]; len(got) != 4 || got[3] != 8 {
		t.Fatalf("a=%v", got)
	}
	if !strings.Contains(progress.String(), "configuration") {
		t.Fatalf("progress=%q", progress.String())
	}
	infos := repro.Backends()
	if infos[0].Name != repro.DefaultBackend || infos[0].Kind != "event" {
		t.Fatalf("Backends()=%v", infos)
	}
	if names := repro.BackendNames(); names[0] != repro.DefaultBackend {
		t.Fatalf("BackendNames()=%v", names)
	}
	if _, err := repro.LookupBackend("compiled"); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.New(repro.WithBackend("bogus")); err == nil {
		t.Fatal("bogus backend must fail")
	}
}

// TestPublicServiceAPI exercises the root re-exports of the service
// surface: a server mounted on a test listener, driven through the
// repro.Client with a builder-chained request, plus the session layer
// on a context-prepared design.
func TestPublicServiceAPI(t *testing.T) {
	ts := httptest.NewServer(repro.NewServer(repro.ServerConfig{}))
	defer ts.Close()
	client := repro.NewClient(ts.URL, ts.Client())

	req := repro.NewRequest("hamming", map[string]int{"words": 8}).
		WithBackend(repro.DefaultBackend).WithRounds(2)
	res, err := client.Verify(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Summary.Passed || res.Summary.Rounds != 2 {
		t.Fatalf("summary: %+v", res.Summary)
	}
	st, err := client.Stats(context.Background())
	if err != nil || st.Sessions != 1 {
		t.Fatalf("stats: %+v %v", st, err)
	}

	p, err := repro.New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.PrepareContext(context.Background(), repro.Source{
		Name:       "pub",
		Text:       `void twice(int[] a, int n) { for (int i = 0; i < n; i = i + 1) { a[i] = 2 * a[i]; } }`,
		Func:       "twice",
		ArraySizes: map[string]int{"a": 4},
		ScalarArgs: map[string]int64{"n": 4},
		Inputs:     map[string][]int64{"a": {1, 2, 3, 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	sess := repro.NewSession(repro.PoolKey{Workload: "pub"}, d, 2)
	out, err := sess.RunContext(context.Background())
	if err != nil || !out.OK() {
		t.Fatalf("session round: %v %+v", err, out)
	}
	if ss := sess.Stats(); ss.Runs != 1 || ss.Elaborations == 0 {
		t.Fatalf("session stats: %+v", ss)
	}
}
