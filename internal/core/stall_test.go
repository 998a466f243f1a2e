package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spantree/internal/fault"
	"spantree/internal/gen"
	"spantree/internal/leakcheck"
	"spantree/internal/obs"
	"spantree/internal/verify"
)

// stallHook returns a chunk-boundary hook that wedges every worker —
// no beats, no claims — until the run's flag trips, which is exactly
// the shape of failure the stall budget exists to convert into a typed
// error: silently stuck, but still able to drain once aborted.
func stallHook(on *atomic.Bool, flag *fault.Flag) func(tid int) {
	return func(tid int) {
		for on.Load() && !flag.Tripped() {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func TestSpanningForestStalled(t *testing.T) {
	g := gen.RandomConnected(2000, 4000, 7)
	var flag fault.Flag
	var on atomic.Bool
	on.Store(true)
	rec := obs.New(2)
	o := WithTestHook(Options{
		NumProcs:    2,
		Seed:        1,
		StallBudget: 25 * time.Millisecond,
		Cancel:      &flag,
		Obs:         rec,
	}, stallHook(&on, &flag))
	start := time.Now()
	_, _, err := SpanningForest(g, o)
	if !errors.Is(err, fault.ErrStalled) {
		t.Fatalf("stalled run: err = %v, want ErrStalled", err)
	}
	if flag.Cause() != fault.CauseStalled {
		t.Fatalf("cause = %v, want CauseStalled", flag.Cause())
	}
	if got := rec.Total(obs.StallTrips); got != 1 {
		t.Fatalf("StallTrips = %d, want 1", got)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("stalled run took %v to abort", e)
	}
}

// TestLockstepStalled: the lockstep driver runs on its caller's
// goroutine, so no coordinator waits to watch its progress, and a stall
// budget is rejected rather than silently ignored; the run never starts.
func TestLockstepStalled(t *testing.T) {
	g := gen.RandomConnected(2000, 4000, 7)
	var calls atomic.Int32
	o := WithTestHook(Options{
		NumProcs:    2,
		Seed:        1,
		StallBudget: 25 * time.Millisecond,
	}, func(int) { calls.Add(1) })
	if _, _, err := LockstepForest(g, o); err == nil {
		t.Fatal("LockstepForest accepted a StallBudget")
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("rejected run reached %d turns, want 0", n)
	}
}

// TestWorkspaceStallReuse is the pooled half of the stall contract:
// a trip surfaces as ErrStalled, and after the caller's flag Reset the
// same parked team serves healthy runs again, goroutine-flat.
func TestWorkspaceStallReuse(t *testing.T) {
	g := gen.RandomConnected(2000, 4000, 7)
	w, err := NewWorkspace(g, Options{NumProcs: 2, StallBudget: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := w.Run(1); err != nil {
		t.Fatalf("healthy warm run: %v", err)
	}
	base := runtime.NumGoroutine()

	var on atomic.Bool
	on.Store(true)
	w.t.o.testHook = stallHook(&on, w.Flag())
	if _, _, err := w.Run(2); !errors.Is(err, fault.ErrStalled) {
		t.Fatalf("stalled run: err = %v, want ErrStalled", err)
	}
	on.Store(false)
	w.t.o.testHook = nil

	// The flag-reset contract is the caller's, same as after a cancel.
	w.Flag().Reset()
	for i := 0; i < 5; i++ {
		parent, _, err := w.Run(uint64(10 + i))
		if err != nil {
			t.Fatalf("run %d after stall: %v", i, err)
		}
		if err := verify.Forest(g, parent); err != nil {
			t.Fatalf("run %d after stall: %v", i, err)
		}
	}
	leakcheck.Settle(t, base)
}

// TestWorkspaceZeroAllocWatchdogArmed extends the zero-alloc guarantee
// to the hardened path: sampling the heartbeats from the join on the
// workspace's reused timer must not allocate.
func TestWorkspaceZeroAllocWatchdogArmed(t *testing.T) {
	for _, p := range []int{1, 4} {
		g := gen.Torus2D(32, 32)
		w, err := NewWorkspace(g, Options{NumProcs: p, StallBudget: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, _, err := w.Run(uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, _, err := w.Run(42); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("p=%d: AllocsPerRun with a stall budget = %v, want 0", p, avg)
		}
		w.Close()
	}
}

// TestWatchdogNoFalseTrips: a healthy run under a tight (but feasible)
// budget completes normally — beats at chunk boundaries keep the
// coordinator's samples moving even when the budget is of the same
// order as the run.
func TestWatchdogNoFalseTrips(t *testing.T) {
	g := gen.Torus2D(64, 64)
	w, err := NewWorkspace(g, Options{NumProcs: 4, StallBudget: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 30; i++ {
		parent, _, err := w.Run(uint64(i))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if err := verify.Forest(g, parent); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestStallNoTripAfterRun: the stall budget is watched only while the
// coordinator waits at the join, so once Run has returned nothing can
// trip the flag, however long the workspace then sits idle. The budget
// is the 1 ms floor, so a slow schedule may stall a run itself; the
// check is that the flag's cause never changes after Run returns.
func TestStallNoTripAfterRun(t *testing.T) {
	w, err := NewWorkspace(gen.Torus2D(16, 16), Options{NumProcs: 2, StallBudget: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		w.Flag().Reset()
		if _, _, err := w.Run(uint64(i)); err != nil && !errors.Is(err, fault.ErrStalled) {
			t.Fatalf("run %d: %v", i, err)
		}
		cause := w.Flag().Cause()
		time.Sleep(10 * time.Millisecond)
		if got := w.Flag().Cause(); got != cause {
			t.Fatalf("run %d: flag went from %v to %v after Run returned", i, cause, got)
		}
	}
}
