package sweep

import (
	"encoding/json"
	"net/http"
	"sync/atomic"

	"repro/internal/api"
)

// Progress is one live snapshot of a coordinator pass: shard counts by
// state, dispatch-layer accounting (hedges, steals, requeues,
// fallbacks), per-endpoint health, and an ETA folded from the fleet
// latency EWMA. Snapshots are never written to shard or campaign files
// — they are the /progressz payload and the `sweep status -follow`
// feed, deliberately outside the deterministic merge surface.
type Progress = api.SweepProgress

// ProgressTracker retains the latest Progress snapshot for concurrent
// readers — the bridge between a running coordinator (which calls
// Update via Options.OnProgress) and anything serving or polling it.
// The zero value is ready to use.
type ProgressTracker struct {
	p atomic.Pointer[api.SweepProgress]
}

// Update stores a new snapshot.
func (t *ProgressTracker) Update(p Progress) {
	t.p.Store(&p)
}

// Latest returns the most recent snapshot, if any.
func (t *ProgressTracker) Latest() (Progress, bool) {
	if p := t.p.Load(); p != nil {
		return *p, true
	}
	return Progress{}, false
}

// Handler serves the latest snapshot as JSON — the coordinator's
// /progressz endpoint. Before the first snapshot it replies 503, so a
// prober can tell "not started" from "no progress".
func (t *ProgressTracker) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p, ok := t.Latest()
		if !ok {
			http.Error(w, "sweep: no progress yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p)
	})
}
