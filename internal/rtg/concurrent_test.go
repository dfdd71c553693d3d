package rtg

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentExecuteIsSerializedAndRaceFree is the replay-cache
// concurrency audit pinned as a test: one controller — one replay
// cache, one shared store — driven by 8 goroutines, each doing the
// reseed-execute-readback round a pooled session serves. The mutex must
// serialize whole walks (every goroutine sees a consistent, completed
// result computed from some round's inputs), and `go test -race` must
// stay silent. Run with -race in CI.
func TestConcurrentExecuteIsSerializedAndRaceFree(t *testing.T) {
	const (
		goroutines = 8
		rounds     = 4
		n          = 8
	)
	ctl, err := NewController(twoPartitionDesign(n), testOptions())
	if err != nil {
		t.Fatal(err)
	}

	// expected final "mc" contents for round r: the two-partition pipe
	// computes mc[i] = (ma[i]*2) + 1 elementwise.
	expect := func(in []int64) []int64 {
		out := make([]int64, len(in))
		for i, v := range in {
			out[i] = v*2 + 1
		}
		return out
	}
	// Every coherent store state is one goroutine-round's seed (for ma)
	// or that seed pushed through the pipe (for mc); a torn mix of two
	// rounds matches neither set.
	seedSet := map[string]bool{}
	outSet := map[string]bool{}
	for k := 0; k < goroutines*rounds; k++ {
		in := propInputs(k, n)
		seedSet[fmt.Sprint(in)] = true
		outSet[fmt.Sprint(expect(in))] = true
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				in := propInputs(g*rounds+r, n)
				// The reseed and the walk are two separately-locked
				// operations: another goroutine's reseed may land
				// between them, so this goroutine's walk may compute
				// from any goroutine's inputs — but never from a torn
				// mix, and the walk itself must always complete.
				if err := ctl.LoadMemory("ma", in); err != nil {
					errs <- err
					return
				}
				res, err := ctl.Execute(context.Background())
				if err != nil {
					errs <- err
					return
				}
				if !res.Completed || len(res.Runs) != 2 {
					errs <- fmt.Errorf("goroutine %d round %d: incomplete result %+v", g, r, res)
					return
				}
				ma, err := ctl.Memory("ma")
				if err != nil {
					errs <- err
					return
				}
				mc, err := ctl.Memory("mc")
				if err != nil {
					errs <- err
					return
				}
				// The two reads are separately locked, so ma and mc may
				// come from different rounds — but each must be one
				// round's coherent value, never a torn mix of two.
				if !seedSet[fmt.Sprint(ma)] {
					errs <- fmt.Errorf("goroutine %d round %d: ma is a torn mix of seeds: %v", g, r, ma)
					return
				}
				if !outSet[fmt.Sprint(mc)] {
					errs <- fmt.Errorf("goroutine %d round %d: mc is not any round's output: %v", g, r, mc)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The replay cache served every walk after the two first-visit
	// elaborations: lifetime counters on a final serial walk pin it.
	res, err := ctl.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range res.Runs {
		if run.Stats.Elaborations != 1 {
			t.Errorf("configuration %s elaborated %d times under concurrency; the cache should have replayed",
				run.ID, run.Stats.Elaborations)
		}
		if run.Stats.Resets != goroutines*rounds {
			t.Errorf("configuration %s served %d resets, want %d", run.ID, run.Stats.Resets, goroutines*rounds)
		}
	}
}

// TestExecuteHonorsPerWalkContext pins the per-walk context: a
// canceled context stops the walk with an error that wraps
// context.Canceled, a nil one never cancels, and a live one after a
// canceled walk runs to completion.
func TestExecuteHonorsPerWalkContext(t *testing.T) {
	ctl, err := NewController(twoPartitionDesign(4), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ctl.Execute(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled per-walk context: err=%v, want one wrapping context.Canceled", err)
	}
	if res, err := ctl.Execute(nil); err != nil || !res.Completed {
		t.Fatalf("nil per-walk context must not cancel: %v %+v", err, res)
	}
	if res, err := ctl.Execute(context.Background()); err != nil || !res.Completed {
		t.Fatalf("live per-walk context after a canceled walk: %v %+v", err, res)
	}
	if _, err := ctl.ExecuteGang(canceled, make([]map[string][]int64, 2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled gang context: err=%v, want one wrapping context.Canceled", err)
	}
}
