package sweep

import (
	"context"
	"testing"
	"time"
)

// TestJitterBackoffBounds pins the decorrelated-jitter envelope:
// every draw lands in [base, 10×base], and consecutive draws vary
// instead of following a fixed multiplicative ladder.
func TestJitterBackoffBounds(t *testing.T) {
	r := &splitmix64{s: 12345}
	base := 100 * time.Millisecond
	cap := time.Second
	prev := base
	distinct := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		d := jitterBackoff(r, base, prev)
		if d < base || d > cap {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, base, cap)
		}
		distinct[d] = true
		prev = d
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct backoffs in 1000 draws — that is a fixed schedule, not jitter", len(distinct))
	}
}

// TestSleepCtxCancelPrompt pins prompt cancellation: a 30s sleep ends
// within test-runner patience once the context dies.
func TestSleepCtxCancelPrompt(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if sleepCtx(ctx, 30*time.Second) {
		t.Fatal("sleepCtx reported a full sleep under a cancelled context")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled sleep took %v", elapsed)
	}
}

// TestBreakerLifecycle drives one epHealth through the two-state
// circuit: closed → open at the failure threshold, closed again after
// the cooldown but one failure short of the threshold, so the next
// failure re-opens it at once, while a success clears the count.
func TestBreakerLifecycle(t *testing.T) {
	h := &epHealth{state: healthClosed}
	now := time.Now()
	cooldown := time.Minute

	h.charge(now, cooldown)
	h.charge(now, cooldown)
	if h.state != healthClosed {
		t.Fatalf("state %q after 2/3 failures, want closed", h.state)
	}
	h.charge(now, cooldown)
	if h.state != healthOpen {
		t.Fatalf("state %q after 3 consecutive failures, want open", h.state)
	}

	h.tick(now.Add(30 * time.Second))
	if h.state != healthOpen {
		t.Fatalf("state %q mid-cooldown, want still open", h.state)
	}
	now = now.Add(2 * time.Minute)
	h.tick(now)
	if h.state != healthClosed || h.consecFails != breakerFailures-1 {
		t.Fatalf("state %q consec=%d after cooldown, want closed/%d", h.state, h.consecFails, breakerFailures-1)
	}
	h.charge(now, cooldown)
	if h.state != healthOpen {
		t.Fatalf("state %q after a failure past the cooldown, want open again", h.state)
	}

	now = now.Add(2 * time.Minute)
	h.tick(now)
	h.credit(50 * time.Millisecond)
	if h.state != healthClosed || h.consecFails != 0 {
		t.Fatalf("state %q consec=%d after a success past the cooldown, want closed/0", h.state, h.consecFails)
	}
	if h.ewmaNS == 0 {
		t.Fatal("success did not fold into the latency EWMA")
	}
	h.charge(now, cooldown)
	if h.state != healthClosed {
		t.Fatalf("state %q after one failure following a success, want closed", h.state)
	}
}
