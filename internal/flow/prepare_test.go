package flow_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/flow"
	"repro/internal/rtg"
)

// TestPreparedDesignRunRepeats pins the amortized lifecycle: one
// Prepare, many Runs, every round verifying green on the same seeds,
// with the replay cache actually carrying the rounds (Resets climbs,
// Elaborations stays at one per configuration).
func TestPreparedDesignRunRepeats(t *testing.T) {
	for _, backend := range flow.BackendNames() {
		t.Run(backend, func(t *testing.T) {
			var runs []rtg.ConfigRun
			obs := &configCollector{runs: &runs}
			p, err := flow.New(flow.WithBackend(backend), flow.WithObserver(obs))
			if err != nil {
				t.Fatal(err)
			}
			d, err := p.Prepare(scaleSource())
			if err != nil {
				t.Fatal(err)
			}
			var firstEvents uint64
			for round := 0; round < 3; round++ {
				runs = runs[:0]
				out, err := d.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !out.OK() {
					t.Fatalf("round %d: not verified: %+v", round, out.Verdict)
				}
				if len(runs) == 0 {
					t.Fatal("observer saw no configurations")
				}
				for _, run := range runs {
					if run.Stats.Elaborations != 1 || run.Stats.Resets != uint64(round) {
						t.Fatalf("round %d: lifetime counters %+v", round, run.Stats)
					}
					if round == 0 {
						firstEvents = run.Stats.Events
					} else if run.Stats.Events != firstEvents {
						t.Fatalf("round %d: replay events %d != fresh %d", round, run.Stats.Events, firstEvents)
					}
				}
			}
			if d.Runs() != 3 {
				t.Fatalf("Runs()=%d", d.Runs())
			}
		})
	}
}

type configCollector struct {
	flow.BaseObserver
	runs *[]rtg.ConfigRun
}

func (c *configCollector) ConfigDone(run rtg.ConfigRun) { *c.runs = append(*c.runs, run) }

// TestPreparedDesignSetSeed pins per-round reseeding: changed seeds
// change the result, unknown memories error, and seeds are copied.
func TestPreparedDesignSetSeed(t *testing.T) {
	p, err := flow.New()
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Prepare(scaleSource())
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.Run()
	if err != nil || !out.OK() {
		t.Fatalf("first run: %v %+v", err, out)
	}
	first := out.Sim.Memories["b"][0] // 3*5+0

	seed := []int64{10, 0, 0, 0, 0, 0, 0, 0}
	if err := d.SetSeed("a", seed); err != nil {
		t.Fatal(err)
	}
	seed[0] = -1 // caller-side mutation must not reach the stored seed
	sim, err := d.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Memories["b"][0]; got != 30 {
		t.Fatalf("b[0]=%d want 30 (first run had %d)", got, first)
	}
	if err := d.SetSeed("ghost", nil); err == nil {
		t.Fatal("unknown memory must error")
	}
}

// TestSetSeedDuringGangIsRaceFree: SetSeed looks its memory up while
// another goroutine runs gang rounds on the event kernel, which write
// lane stores. The lookup must not read the store; `go test -race`
// reports it if it does.
func TestSetSeedDuringGangIsRaceFree(t *testing.T) {
	d := prepare(t, "twolevel", scaleSource())
	lanes := make([]map[string][]int64, 4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			if _, err := d.SimulateGang(lanes); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var err error
	for err == nil {
		select {
		case <-done:
			return
		default:
			err = d.SetSeed("a", []int64{1, 2, 3})
		}
	}
	<-done
	t.Fatal(err)
}

// TestPreparedDesignFromLoadedDesign covers PrepareDesign: no compiled
// stage, zero-filled seeds, nil Verdict from Run.
func TestPreparedDesignFromLoadedDesign(t *testing.T) {
	p, err := flow.New()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile(scaleSource())
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.PrepareDesign(c.Design)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetSeed("a", []int64{5, -3, 12, 7, 0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		out, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.Verdict != nil {
			t.Fatal("loaded design cannot verify; Verdict must be nil")
		}
		if !out.Sim.Completed {
			t.Fatal("simulation incomplete")
		}
		if got := out.Sim.Memories["b"][0]; got != 15 {
			t.Fatalf("round %d: b[0]=%d want 15", round, got)
		}
	}
}

// TestWithFreshElaborationDisablesReplay pins the A/B hook end to end:
// under WithFreshElaboration every round rebuilds (Resets stays 0).
func TestWithFreshElaborationDisablesReplay(t *testing.T) {
	var runs []rtg.ConfigRun
	p, err := flow.New(flow.WithFreshElaboration(true), flow.WithObserver(&configCollector{runs: &runs}))
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Prepare(scaleSource())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if _, err := d.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for _, run := range runs {
		if run.Stats.Resets != 0 || run.Stats.Elaborations != 1 {
			t.Fatalf("fresh-elaboration pipeline replayed: %+v", run.Stats)
		}
	}
}

// TestCancellationIsPerCall pins cancellation as an argument on both
// backends: a nil context never cancels, and a canceled one stops
// PrepareContext, SimulateContext, RunContext and SimulateGangContext
// with an error that wraps context.Canceled.
func TestCancellationIsPerCall(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, backend := range flow.BackendNames() {
		t.Run(backend, func(t *testing.T) {
			p, err := flow.New(flow.WithBackend(backend))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.PrepareContext(canceled, scaleSource()); !errors.Is(err, context.Canceled) {
				t.Fatalf("PrepareContext: err=%v, want one wrapping context.Canceled", err)
			}
			d, err := p.PrepareContext(nil, scaleSource())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.SimulateContext(canceled); !errors.Is(err, context.Canceled) {
				t.Fatalf("SimulateContext: err=%v, want one wrapping context.Canceled", err)
			}
			if _, err := d.RunContext(canceled); !errors.Is(err, context.Canceled) {
				t.Fatalf("RunContext: err=%v, want one wrapping context.Canceled", err)
			}
			lanes := make([]map[string][]int64, 2)
			if _, err := d.SimulateGangContext(canceled, lanes); !errors.Is(err, context.Canceled) {
				t.Fatalf("SimulateGangContext: err=%v, want one wrapping context.Canceled", err)
			}
			if s, err := d.SimulateContext(nil); err != nil || !s.Completed {
				t.Fatalf("SimulateContext(nil): %v", err)
			}
			if out, err := d.RunContext(nil); err != nil || !out.OK() {
				t.Fatalf("RunContext(nil): %v", err)
			}
			if sims, err := d.SimulateGangContext(nil, lanes); err != nil || !sims[1].Completed {
				t.Fatalf("SimulateGangContext(nil): %v", err)
			}
		})
	}
}
