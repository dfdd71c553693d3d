package sweep

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/api"
)

// TestStealWaitsForHomeEndpoint pins the start-up rule of work
// stealing: the first endpoint to take work gets its own home shards
// and steals nothing until a shard's home endpoint has made its first
// take. Without the rule, one endpoint drains the whole queue before
// the others' slots run, and a blackholed endpoint never holds a shard
// that hedging could rescue.
func TestStealWaitsForHomeEndpoint(t *testing.T) {
	c, err := Load(&api.SweepSpec{Name: "steal", Shards: 6,
		Grid: &api.GridSpec{Workloads: []string{"hamming,words=8"}, SeedTo: 6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	shards := c.Shards()
	res := &Result{Shards: make([]api.ShardStats, len(shards))}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eps := make([]Endpoint, 3)
	for i := range eps {
		eps[i] = Endpoint{Worker: &LocalWorker{}}
	}
	d := newDispatcher(ctx, cancel, c, Options{Endpoints: eps}, shards, res, 0)

	drain := func(ep int) []int {
		var got []int
		for tk := d.takePending(ep, time.Now(), false); tk != nil; tk = d.takePending(ep, time.Now(), false) {
			tk.state = taskRunning
			got = append(got, tk.sh.Index)
		}
		return got
	}
	if got := drain(0); !slices.Equal(got, []int{0, 3}) {
		t.Fatalf("first endpoint took shards %v, want only its home shards [0 3]", got)
	}
	// Endpoint 1's first take opens its remaining home shard to
	// stealing; endpoint 2 has not started, so its shards stay put.
	if tk := d.takePending(1, time.Now(), false); tk == nil || tk.sh.Index != 1 {
		t.Fatalf("endpoint 1 took %v, want its home shard 1", tk)
	} else {
		tk.state = taskRunning
	}
	if got := drain(0); !slices.Equal(got, []int{4}) {
		t.Fatalf("first endpoint stole %v, want [4]", got)
	}
}
