package hades

import (
	"fmt"
	"testing"
)

// buildResetTraffic wires self-sustaining traffic over every queue path
// (lanes, delta FIFO, overflow heap); seed re-arms it after a Reset.
func buildResetTraffic(sim *Simulator) (seed func()) {
	var sigs []*Signal
	for k := 0; k < 8; k++ {
		sig := sim.NewSignal(fmt.Sprintf("ring%d", k), 32)
		p := Time(k%5 + 3)
		sig.Listen(&ReactorFunc{Label: "ring", Fn: func(s *Simulator) {
			s.SetUint(sig, sig.Uint()+1, p)
		}})
		sigs = append(sigs, sig)
	}
	da := sim.NewSignal("da", 32)
	db := sim.NewSignal("db", 32)
	da.Listen(&ReactorFunc{Label: "d0", Fn: func(s *Simulator) { s.SetUint(db, da.Uint(), 0) }})
	db.Listen(&ReactorFunc{Label: "d1", Fn: func(s *Simulator) { s.SetUint(da, db.Uint()+1, 9) }})
	far := sim.NewSignal("far", 32)
	far.Listen(&ReactorFunc{Label: "far", Fn: func(s *Simulator) {
		s.SetUint(far, far.Uint()+1, 5000)
	}})
	sigs = append(sigs, da, db, far)
	return func() {
		for k, sig := range sigs[:8] {
			sim.SetUint(sig, 1, Time(k+1))
		}
		sim.SetUint(da, 1, 2)
		sim.SetUint(far, 1, 4)
	}
}

type simSnapshot struct {
	stats Stats
	now   Time
	vals  []uint64
}

func snapshot(sim *Simulator) simSnapshot {
	s := simSnapshot{stats: sim.Stats(), now: sim.Now()}
	s.stats.Elaborations, s.stats.Resets = 0, 0 // lifetime counters differ by design
	for _, sig := range sim.Signals() {
		s.vals = append(s.vals, sig.Uint())
	}
	return s
}

func equalSnapshots(a, b simSnapshot) bool {
	if a.stats != b.stats || a.now != b.now || len(a.vals) != len(b.vals) {
		return false
	}
	for i := range a.vals {
		if a.vals[i] != b.vals[i] {
			return false
		}
	}
	return true
}

// TestResetReplayMatchesFreshRun pins that a reset simulator re-running
// the same schedule produces exactly the per-run stats and final values
// of a freshly built one, across several rounds.
func TestResetReplayMatchesFreshRun(t *testing.T) {
	const horizon = 20_000
	t.Run(KernelTwoLevel, func(t *testing.T) {
		ref := NewSimulator()
		seedRef := buildResetTraffic(ref)
		seedRef()
		if _, err := ref.Run(horizon); err != nil {
			t.Fatal(err)
		}
		want := snapshot(ref)
		if want.stats.Events == 0 {
			t.Fatal("reference run processed no events")
		}

		sim := NewSimulator()
		seed := buildResetTraffic(sim)
		for round := 0; round < 3; round++ {
			if round > 0 {
				sim.Reset()
			}
			seed()
			if _, err := sim.Run(horizon); err != nil {
				t.Fatal(err)
			}
			if got := snapshot(sim); !equalSnapshots(got, want) {
				t.Fatalf("round %d diverged: got %+v want %+v", round, got.stats, want.stats)
			}
			if got := sim.Stats().Resets; got != uint64(round) {
				t.Fatalf("round %d: Resets=%d", round, got)
			}
		}
	})
}

// TestResetClearsPendingAndStop pins the kernel-state portion of Reset:
// queued events vanish (back to the pool), time and per-run stats
// rewind, stop state clears, and every signal reads undefined again.
func TestResetClearsPendingAndStop(t *testing.T) {
	t.Run(KernelTwoLevel, func(t *testing.T) {
		sim := NewSimulator()
		sig := sim.NewSignal("s", 8)
		sim.Set(sig, 5, 0)    // delta FIFO
		sim.Set(sig, 6, 3)    // near window
		sim.Set(sig, 7, 9999) // overflow heap
		sim.RequestStop("test")
		if sim.PendingEvents() != 3 {
			t.Fatalf("pending=%d", sim.PendingEvents())
		}
		sim.Reset()
		if sim.PendingEvents() != 0 {
			t.Fatalf("pending after reset=%d", sim.PendingEvents())
		}
		if stopped, _ := sim.Stopped(); stopped {
			t.Fatal("stop must clear on reset")
		}
		if sim.Now() != 0 {
			t.Fatalf("now=%v", sim.Now())
		}
		if sig.Valid() {
			t.Fatal("signals must be undefined after reset")
		}
		st := sim.Stats()
		if st.Events != 0 || st.Resets != 1 {
			t.Fatalf("stats=%+v", st)
		}
	})
}

// TestResetDetachesPostMarkListeners pins the Mark/Reset contract: a
// listener and a finish callback attached after Mark are detached by
// Reset, while pre-Mark listeners keep firing.
func TestResetDetachesPostMarkListeners(t *testing.T) {
	sim := NewSimulator()
	sig := sim.NewSignal("s", 8)
	preFired, postFired, finished := 0, 0, 0
	sig.Listen(&ReactorFunc{Label: "pre", Fn: func(*Simulator) { preFired++ }})
	sim.Mark()
	sig.Listen(&ReactorFunc{Label: "post", Fn: func(*Simulator) { postFired++ }})
	extra := sim.NewSignal("extra", 1)
	sim.OnFinish(func() { finished++ })

	sim.Reset()
	if n := len(sim.Signals()); n != 1 {
		t.Fatalf("post-mark signal must be dropped, have %d signals", n)
	}
	_ = extra
	sim.Set(sig, 1, 1)
	if _, err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if preFired != 1 || postFired != 0 {
		t.Fatalf("pre=%d post=%d, want 1/0", preFired, postFired)
	}
	if finished != 0 {
		t.Fatal("post-mark OnFinish must be dropped by reset")
	}
}

// TestResetSteadyStateAllocs mirrors TestKernelSteadyStateAllocs for the
// replay path: once the pools are warm, a reset-and-rerun round performs
// no allocations.
func TestResetSteadyStateAllocs(t *testing.T) {
	t.Run(KernelTwoLevel, func(t *testing.T) {
		sim := NewSimulator()
		seed := buildResetTraffic(sim)
		seed()
		if _, err := sim.Run(20_000); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			sim.Reset()
			seed()
			if _, err := sim.Run(2_000); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("reset-and-replay allocates %v objects per round, want 0", avg)
		}
	})
}
