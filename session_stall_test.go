package spantree

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spantree/internal/fault"
	"spantree/internal/gen"
	"spantree/internal/leakcheck"
)

// TestSessionStalledThenReuse drives the watchdog contract through the
// public session API: a run in which every worker wedges (no progress,
// but still able to drain once aborted) returns ErrStalled within the
// stall budget, and the same pooled session then serves healthy
// requests allocation-free and goroutine-flat — a stall trip must not
// cost the serving layer its zero-allocation steady state.
func TestSessionStalledThenReuse(t *testing.T) {
	g := gen.RandomConnected(2000, 4000, 7)
	var on atomic.Bool
	var flag atomic.Pointer[fault.Flag]
	hook := func(tid int) {
		f := flag.Load()
		for on.Load() && f != nil && !f.Tripped() {
			time.Sleep(200 * time.Microsecond)
		}
	}
	s, err := NewSession(g, SessionOptions{
		NumProcs:    2,
		StallBudget: 25 * time.Millisecond,
		testHook:    hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	flag.Store(s.w.Flag())

	if _, err := s.Find(1); err != nil {
		t.Fatalf("healthy run: %v", err)
	}
	base := runtime.NumGoroutine()

	on.Store(true)
	_, err = s.FindContext(context.Background(), 2)
	on.Store(false)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("stalled run: err = %v, want ErrStalled", err)
	}

	// Reuse: FindContext rearms the flag itself, so no caller-side reset
	// is needed — the next request just works.
	for i := 0; i < 5; i++ {
		res, err := s.Find(uint64(10 + i))
		if err != nil {
			t.Fatalf("run %d after stall: %v", i, err)
		}
		if res.Roots != 1 {
			t.Fatalf("run %d after stall: %d roots, want 1", i, res.Roots)
		}
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := s.Find(42); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("AllocsPerRun after a stall trip = %v, want 0", avg)
	}
	// The watchdog monitor is parked, not respawned, so the goroutine
	// count settles back to the pre-trip level.
	leakcheck.Settle(t, base)
}

// TestSessionWarmupIgnoresStallBudget: warmups are construction runs, so
// the stall budget does not judge them, while a real request under the
// same stall still returns ErrStalled. On K8 at p = 1 a run has one
// chunk boundary (its first drain claims the whole graph), and the hook
// holds it far past the budget: for a fixed time while the session is
// being built, and until the run's flag trips once the session exists.
func TestSessionWarmupIgnoresStallBudget(t *testing.T) {
	const budget = 10 * time.Millisecond
	var flag atomic.Pointer[fault.Flag]
	hook := func(int) {
		hold := time.Now().Add(20 * budget)
		if f := flag.Load(); f != nil {
			hold = time.Now().Add(5 * time.Second)
			for !f.Tripped() && time.Now().Before(hold) {
				time.Sleep(200 * time.Microsecond)
			}
			return
		}
		time.Sleep(time.Until(hold))
	}
	s, err := NewSession(gen.Complete(8), SessionOptions{
		NumProcs:    1,
		StallBudget: budget,
		testHook:    hook,
	})
	if err != nil {
		t.Fatalf("NewSession under a held first chunk: %v", err)
	}
	defer s.Close()
	flag.Store(s.w.Flag())
	if _, err := s.FindContext(context.Background(), 3); !errors.Is(err, ErrStalled) {
		t.Fatalf("held run: err = %v, want ErrStalled", err)
	}
}
