package hades

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSignalDefaults(t *testing.T) {
	sim := NewSimulator()
	s := sim.NewSignal("a", 8)
	if s.Valid() {
		t.Fatal("fresh signal must be undefined")
	}
	if s.Uint() != 0 || s.Int() != 0 {
		t.Fatal("undefined signal must read 0")
	}
	if s.Name() != "a" || s.Width() != 8 {
		t.Fatalf("metadata mismatch: %s/%d", s.Name(), s.Width())
	}
}

func TestSignalWidthValidation(t *testing.T) {
	sim := NewSimulator()
	for _, w := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("width %d must panic", w)
				}
			}()
			sim.NewSignal("bad", w)
		}()
	}
}

func TestMask(t *testing.T) {
	cases := []struct {
		v    uint64
		w    int
		want uint64
	}{
		{0xFF, 4, 0xF},
		{0x100, 8, 0},
		{math.MaxUint64, 64, math.MaxUint64},
		{math.MaxUint64, 1, 1},
		{0, 32, 0},
	}
	for _, c := range cases {
		if got := Mask(c.v, c.w); got != c.want {
			t.Errorf("Mask(%#x,%d)=%#x want %#x", c.v, c.w, got, c.want)
		}
	}
}

func TestSignExtend(t *testing.T) {
	cases := []struct {
		v    uint64
		w    int
		want int64
	}{
		{0xF, 4, -1},
		{0x7, 4, 7},
		{0x80, 8, -128},
		{0x7F, 8, 127},
		{0xFFFFFFFF, 32, -1},
		{1 << 31, 32, math.MinInt32},
	}
	for _, c := range cases {
		if got := SignExtend(c.v, c.w); got != c.want {
			t.Errorf("SignExtend(%#x,%d)=%d want %d", c.v, c.w, got, c.want)
		}
	}
}

func TestSignExtendRoundTripProperty(t *testing.T) {
	// For any int64 v and width w, masking then sign-extending a value
	// that fits in w bits must return the value unchanged.
	f := func(v int32) bool {
		return SignExtend(Mask(uint64(int64(v)), 32), 32) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventDeliveryAndOrder(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 32)
	var seen []int64
	r := &ReactorFunc{Label: "rec", Fn: func(s *Simulator) {
		seen = append(seen, a.Int())
	}}
	a.Listen(r)
	sim.Set(a, 3, 30)
	sim.Set(a, 1, 10)
	sim.Set(a, 2, 20)
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 3}
	if len(seen) != len(want) {
		t.Fatalf("saw %v want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("saw %v want %v", seen, want)
		}
	}
}

func TestNoReactionOnSameValue(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	count := 0
	a.Listen(&ReactorFunc{Label: "c", Fn: func(*Simulator) { count++ }})
	sim.Set(a, 5, 1)
	sim.Set(a, 5, 2) // same value: no change, no reaction
	sim.Set(a, 6, 3)
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("reactions = %d, want 2", count)
	}
}

func TestDeltaCycleSeparation(t *testing.T) {
	// b follows a with zero delay; the update must land in the next
	// delta of the same instant, not the same delta.
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	b := sim.NewSignal("b", 8)
	var bAtReact []int64
	a.Listen(&ReactorFunc{Label: "follow", Fn: func(s *Simulator) {
		bAtReact = append(bAtReact, b.Int())
		s.Set(b, a.Int(), 0)
	}})
	sim.Set(a, 7, 5)
	end, err := sim.Run(TimeMax)
	if err != nil {
		t.Fatal(err)
	}
	if end != 5 {
		t.Fatalf("end=%v want 5", end)
	}
	if b.Int() != 7 {
		t.Fatalf("b=%d want 7", b.Int())
	}
	if len(bAtReact) != 1 || bAtReact[0] != 0 {
		t.Fatalf("b must still be old value during a's delta: %v", bAtReact)
	}
	if st := sim.Stats(); st.Deltas < 2 {
		t.Fatalf("expected at least 2 deltas, got %d", st.Deltas)
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 1)
	// Inverter feeding itself: oscillates forever in delta time.
	a.Listen(&ReactorFunc{Label: "inv", Fn: func(s *Simulator) {
		s.Set(a, 1-a.Int(), 0)
	}})
	sim.MaxDeltas = 50
	sim.Set(a, 1, 1)
	if _, err := sim.Run(TimeMax); err == nil {
		t.Fatal("expected delta limit error")
	} else if !strings.Contains(err.Error(), "delta cycle limit") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRunLimitLeavesFutureEvents(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	sim.Set(a, 1, 10)
	sim.Set(a, 2, 1000)
	end, err := sim.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if end != 10 || a.Int() != 1 {
		t.Fatalf("end=%v a=%d; want 10, 1", end, a.Int())
	}
	// Resume to process the rest.
	end, err = sim.Run(TimeMax)
	if err != nil {
		t.Fatal(err)
	}
	if end != 1000 || a.Int() != 2 {
		t.Fatalf("after resume end=%v a=%d", end, a.Int())
	}
}

func TestRequestStop(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	a.Listen(&ReactorFunc{Label: "stopper", Fn: func(s *Simulator) {
		if a.Int() == 3 {
			s.RequestStop("saw three")
		}
	}})
	for i := 1; i <= 10; i++ {
		sim.Set(a, int64(i), Time(i))
	}
	end, err := sim.Run(TimeMax)
	if err != nil {
		t.Fatal(err)
	}
	if end != 3 {
		t.Fatalf("end=%v want 3", end)
	}
	stopped, why := sim.Stopped()
	if !stopped || why != "saw three" {
		t.Fatalf("stopped=%v why=%q", stopped, why)
	}
}

func TestDriveInitialization(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 16)
	sim.Drive(a, -2)
	if !a.Valid() || a.Int() != -2 {
		t.Fatalf("drive failed: valid=%v val=%d", a.Valid(), a.Int())
	}
	if a.Uint() != 0xFFFE {
		t.Fatalf("masked store wrong: %#x", a.Uint())
	}
}

func TestClockGeneratesEdges(t *testing.T) {
	sim := NewSimulator()
	clk := sim.NewSignal("clk", 1)
	c := NewClock("clk", clk, 10, 100)
	c.Start(sim)
	rises := 0
	prev := false
	clk.Listen(&ReactorFunc{Label: "cnt", Fn: func(*Simulator) {
		if RisingEdge(clk, &prev) {
			rises++
		}
	}})
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if rises != 10 {
		t.Fatalf("rises=%d want 10", rises)
	}
}

func TestClockPeriodValidation(t *testing.T) {
	sim := NewSimulator()
	clk := sim.NewSignal("clk", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("period < 2 must panic")
		}
	}()
	NewClock("bad", clk, 1, 100)
}

func TestResetPulse(t *testing.T) {
	sim := NewSimulator()
	rst := sim.NewSignal("rst", 1)
	NewResetPulse("rst", sim, rst, 15)
	if !rst.Bool() {
		t.Fatal("reset must start asserted")
	}
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if rst.Bool() {
		t.Fatal("reset must deassert")
	}
	if rst.LastChange() != 15 {
		t.Fatalf("deassert at %v want 15", rst.LastChange())
	}
}

func TestProbeHistoryAndValueAt(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	p := NewProbe(a, 0)
	sim.Set(a, 1, 10)
	sim.Set(a, 2, 20)
	sim.Set(a, 3, 30)
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if p.Transitions() != 3 {
		t.Fatalf("transitions=%d", p.Transitions())
	}
	if v, ok := p.ValueAt(25); !ok || v != 2 {
		t.Fatalf("ValueAt(25)=%d,%v", v, ok)
	}
	if _, ok := p.ValueAt(5); ok {
		t.Fatal("no value before first change")
	}
	if !strings.Contains(p.Dump(), "20:2") {
		t.Fatalf("dump missing entry: %s", p.Dump())
	}
}

func TestProbeBoundedHistory(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 32)
	p := NewProbe(a, 5)
	for i := 1; i <= 20; i++ {
		sim.Set(a, int64(i), Time(i))
	}
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(p.History()) != 5 {
		t.Fatalf("history=%d want 5", len(p.History()))
	}
	if p.Dropped() != 15 || p.Transitions() != 20 {
		t.Fatalf("dropped=%d transitions=%d", p.Dropped(), p.Transitions())
	}
	if p.History()[0].Value != 16 {
		t.Fatalf("oldest kept=%d want 16", p.History()[0].Value)
	}
}

func TestAssertionRecordsAndStops(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	as := NewAssertion("a<=3", func() bool { return a.Int() <= 3 }, a)
	as.StopOnFail = true
	for i := 1; i <= 10; i++ {
		sim.Set(a, int64(i), Time(i))
	}
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if !as.Failed() || len(as.Violations()) != 1 {
		t.Fatalf("violations=%v", as.Violations())
	}
	if as.Violations()[0].At != 4 {
		t.Fatalf("violation at %v want 4", as.Violations()[0].At)
	}
	if stopped, _ := sim.Stopped(); !stopped {
		t.Fatal("must stop on failure")
	}
}

func TestAssertionNonStopCollectsAll(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	as := NewAssertion("even", func() bool { return a.Int()%2 == 0 }, a)
	for i := 1; i <= 6; i++ {
		sim.Set(a, int64(i), Time(i))
	}
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if len(as.Violations()) != 3 {
		t.Fatalf("violations=%d want 3", len(as.Violations()))
	}
}

func TestWatchdogStopsOnValue(t *testing.T) {
	sim := NewSimulator()
	done := sim.NewSignal("done", 1)
	w := NewWatchdog("done", done, 1)
	sim.Set(done, 0, 1)
	sim.Set(done, 1, 42)
	end, err := sim.Run(TimeMax)
	if err != nil {
		t.Fatal(err)
	}
	fired, at := w.Fired()
	if !fired || at != 42 || end != 42 {
		t.Fatalf("fired=%v at=%v end=%v", fired, at, end)
	}
}

func TestVCDOutput(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 1)
	b := sim.NewSignal("bus", 8)
	var sb strings.Builder
	v := NewVCDWriter(&sb)
	v.Add(a)
	v.Add(b)
	v.Header("top")
	sim.Set(a, 1, 5)
	sim.Set(b, 0xAB, 5)
	sim.Set(a, 0, 9)
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ns $end",
		"$var wire 1 ! a $end",
		"$var wire 8 \" bus $end",
		"#5", "1!", "b10101011 \"", "#9", "0!",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vcd missing %q in:\n%s", want, out)
		}
	}
	if v.Err() != nil {
		t.Fatal(v.Err())
	}
}

func TestVCDIDUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate vcd id %q at %d", id, i)
		}
		seen[id] = true
	}
}

func TestStatsCounters(t *testing.T) {
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	a.Listen(&ReactorFunc{Label: "nop", Fn: func(*Simulator) {}})
	sim.Set(a, 1, 1)
	sim.Set(a, 2, 2)
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	st := sim.Stats()
	if st.Events != 2 || st.Reactions != 2 || st.Instants != 2 {
		t.Fatalf("stats=%+v", st)
	}
}

// TestSetRejectsSignalNotHeld pins Set's ownership guard. Events name
// their signal by id, so a signal this simulator does not hold would
// otherwise update whichever of its own signals has that id.
func TestSetRejectsSignalNotHeld(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Set of %s did not panic", what)
			}
		}()
		fn()
	}
	sim := NewSimulator()
	a := sim.NewSignal("a", 8)
	foreign := NewSimulator().NewSignal("foreign", 8) // same id as a
	mustPanic("another simulator's signal", func() { sim.Set(foreign, 1, 1) })

	sim.Mark()
	x := sim.NewSignal("x", 8)
	sim.Reset()
	mustPanic("a signal detached by Reset", func() { sim.Set(x, 2, 1) })
	y := sim.NewSignal("y", 8)
	if y.id != x.id {
		t.Fatalf("y took id %d, want x's id %d", y.id, x.id)
	}
	mustPanic("a detached signal whose id was reused", func() { sim.Set(x, 3, 1) })

	sim.Set(y, 5, 1)
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if !y.Valid() || y.Uint() != 5 {
		t.Fatalf("y = %v, want 5", y)
	}
	if a.Valid() || x.Valid() || foreign.Valid() {
		t.Fatalf("only y may change: a=%v x=%v foreign=%v", a, x, foreign)
	}
	if st := sim.Stats(); st.Events != 1 {
		t.Fatalf("events=%d, want 1", st.Events)
	}
}

func TestOnFinishRuns(t *testing.T) {
	sim := NewSimulator()
	called := false
	sim.OnFinish(func() { called = true })
	if _, err := sim.Run(TimeMax); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("finalizer not called")
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:             "5ns",
		1_500:         "1.5us",
		2_000_000:     "2ms",
		3_000_000_000: "3s",
	}
	for tm, want := range cases {
		if got := tm.String(); got != want {
			t.Errorf("%d.String()=%q want %q", int64(tm), got, want)
		}
	}
}

func TestDeterministicReactionOrder(t *testing.T) {
	// Two reactors on the same signal must always fire in creation order.
	for trial := 0; trial < 10; trial++ {
		sim := NewSimulator()
		a := sim.NewSignal("a", 8)
		var order []string
		r1 := &orderedReactor{label: "first", out: &order}
		r1.AssignID(NextID())
		r2 := &orderedReactor{label: "second", out: &order}
		r2.AssignID(NextID())
		a.Listen(r2) // listen order reversed on purpose
		a.Listen(r1)
		sim.Set(a, 1, 1)
		if _, err := sim.Run(TimeMax); err != nil {
			t.Fatal(err)
		}
		if len(order) != 2 || order[0] != "first" || order[1] != "second" {
			t.Fatalf("order=%v", order)
		}
	}
}

type orderedReactor struct {
	IDBase
	label string
	out   *[]string
}

func (o *orderedReactor) Name() string     { return o.label }
func (o *orderedReactor) React(*Simulator) { *o.out = append(*o.out, o.label) }

func TestEventMonotonicityProperty(t *testing.T) {
	// Property: regardless of the (delay, value) schedule order, reactions
	// observe a non-decreasing time sequence.
	f := func(delays []uint8) bool {
		sim := NewSimulator()
		a := sim.NewSignal("a", 32)
		last := Time(-1)
		ok := true
		a.Listen(&ReactorFunc{Label: "mono", Fn: func(s *Simulator) {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		}})
		for i, d := range delays {
			sim.Set(a, int64(i+1), Time(d))
		}
		if _, err := sim.Run(TimeMax); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
