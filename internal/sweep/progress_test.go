package sweep_test

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/sweep"
)

// TestProgressSnapshotsAndHandler wires a coordinator pass through a
// ProgressTracker and pins the /progressz surface: 503 before the
// first snapshot, JSON after, and a final snapshot accounting for
// every shard and case.
func TestProgressSnapshotsAndHandler(t *testing.T) {
	var tr sweep.ProgressTracker

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/progressz", nil))
	if rec.Code != 503 {
		t.Errorf("pre-start /progressz = %d, want 503", rec.Code)
	}

	spec := scenarioSpec(83, 6)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	runCoordinator(t, c, sweep.Options{
		OutDir:     t.TempDir(),
		Workers:    2,
		OnProgress: tr.Update,
	})

	p, ok := tr.Latest()
	if !ok {
		t.Fatal("no progress snapshot after a completed pass")
	}
	if p.Record != api.RecordSweepProgress {
		t.Errorf("record = %q, want %q", p.Record, api.RecordSweepProgress)
	}
	if p.Done != 3 || p.Pending != 0 || p.Running != 0 || p.Failed != 0 {
		t.Errorf("final snapshot %+v, want 3 done and nothing in flight", p)
	}
	if p.CasesDone != 6 || p.CasesTotal != 6 {
		t.Errorf("cases %d/%d, want 6/6", p.CasesDone, p.CasesTotal)
	}
	if p.CampaignDigest != c.Digest {
		t.Errorf("digest %q, want %q", p.CampaignDigest, c.Digest)
	}
	if len(p.Workers) != 1 || p.Workers[0].State != "healthy" {
		t.Errorf("worker health %+v, want one healthy endpoint", p.Workers)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/progressz", nil))
	if rec.Code != 200 {
		t.Fatalf("/progressz = %d, want 200", rec.Code)
	}
	var served sweep.Progress
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		t.Fatal(err)
	}
	if served.Campaign != c.Spec.Name || served.Done != 3 {
		t.Errorf("served snapshot %+v, want campaign %q complete", served, c.Spec.Name)
	}
}

// TestResumedShardsCountInProgress pins the resume baseline: a pass
// that skips already-valid shards still reports their cases done.
func TestResumedShardsCountInProgress(t *testing.T) {
	spec := scenarioSpec(89, 6)
	c := mustLoad(t, sweep.WrapScenario(spec, 3))
	dir := t.TempDir()
	runCoordinator(t, c, sweep.Options{OutDir: dir, Workers: 1})

	var tr sweep.ProgressTracker
	runCoordinator(t, c, sweep.Options{
		OutDir:     dir,
		Workers:    1,
		Resume:     true,
		OnProgress: tr.Update,
	})
	p, ok := tr.Latest()
	if !ok {
		t.Fatal("no snapshot from the resume pass")
	}
	if p.Done != 3 || p.CasesDone != 6 {
		t.Errorf("resume snapshot done=%d cases=%d, want 3 shards / 6 cases", p.Done, p.CasesDone)
	}
}
