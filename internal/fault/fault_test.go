package fault

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestFlagTripsOnce(t *testing.T) {
	var f Flag
	if f.Tripped() || f.Cause() != CauseNone || f.Err() != nil {
		t.Fatal("zero flag must be untripped")
	}
	if !f.Trip(CauseCanceled) {
		t.Fatal("first trip must win")
	}
	if f.Trip(CauseDeadline) {
		t.Fatal("second trip must lose")
	}
	if f.TripPanic(&PanicError{Worker: 1, Value: "late"}) {
		t.Fatal("late panic must lose")
	}
	if f.Cause() != CauseCanceled {
		t.Fatalf("cause = %v, want canceled", f.Cause())
	}
	if !errors.Is(f.Err(), ErrCanceled) || !errors.Is(f.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want ErrCanceled wrapping context.Canceled", f.Err())
	}
	if f.Panic() != nil {
		t.Fatal("Panic() must be nil for a context stop")
	}
}

func TestFlagTripNoneIsNoop(t *testing.T) {
	var f Flag
	if f.Trip(CauseNone) {
		t.Fatal("tripping with CauseNone must be rejected")
	}
	if f.Tripped() {
		t.Fatal("flag tripped by CauseNone")
	}
}

func TestNilFlagIsNeverTripping(t *testing.T) {
	var f *Flag
	if f.Tripped() || f.Trip(CauseCanceled) || f.Cause() != CauseNone ||
		f.Err() != nil || f.Panic() != nil || f.TripPanic(&PanicError{}) {
		t.Fatal("nil flag must be inert")
	}
}

func TestPanicTrip(t *testing.T) {
	var f Flag
	pe := &PanicError{Worker: 3, Value: "boom"}
	if !f.TripPanic(pe) {
		t.Fatal("panic trip must win on a fresh flag")
	}
	if f.Cause() != CausePanicked {
		t.Fatalf("cause = %v, want panicked", f.Cause())
	}
	if got := f.Panic(); got != pe {
		t.Fatalf("Panic() = %v, want the recorded error", got)
	}
	var want *PanicError
	if !errors.As(f.Err(), &want) || want.Worker != 3 {
		t.Fatalf("Err() = %v, want the *PanicError", f.Err())
	}
}

func TestDeadlineError(t *testing.T) {
	var f Flag
	f.Trip(CauseDeadline)
	if !errors.Is(f.Err(), ErrDeadline) || !errors.Is(f.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want ErrDeadline wrapping DeadlineExceeded", f.Err())
	}
}

func TestConcurrentTripsExactlyOneWinner(t *testing.T) {
	var f Flag
	const racers = 16
	var wg sync.WaitGroup
	wins := make([]bool, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				wins[i] = f.Trip(CauseCanceled)
			} else {
				wins[i] = f.TripPanic(&PanicError{Worker: i})
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		if w {
			total++
		}
	}
	if total != 1 {
		t.Fatalf("%d winners, want exactly 1", total)
	}
	// A panicked winner must expose its PanicError even to a reader that
	// raced the store.
	if f.Cause() == CausePanicked && f.Panic() == nil {
		t.Fatal("panicked flag lost its PanicError")
	}
}

func TestWatchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var f Flag
	stop := Watch(ctx, &f)
	defer stop()
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !f.Tripped() {
		if time.Now().After(deadline) {
			t.Fatal("watcher never tripped the flag")
		}
		time.Sleep(time.Millisecond)
	}
	if f.Cause() != CauseCanceled {
		t.Fatalf("cause = %v, want canceled", f.Cause())
	}
}

func TestWatchDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	var f Flag
	stop := Watch(ctx, &f)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for !f.Tripped() {
		if time.Now().After(deadline) {
			t.Fatal("watcher never tripped the flag")
		}
		time.Sleep(time.Millisecond)
	}
	if f.Cause() != CauseDeadline {
		t.Fatalf("cause = %v, want deadline", f.Cause())
	}
}

func TestWatchBackgroundSpawnsNothing(t *testing.T) {
	var f Flag
	stop := Watch(context.Background(), &f)
	stop()
	stop() // idempotent
	if f.Tripped() {
		t.Fatal("background watch tripped the flag")
	}
}

func TestWatchStopReleasesWatcher(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var f Flag
	stop := Watch(ctx, &f)
	stop()
	stop() // idempotent
	cancel()
	time.Sleep(5 * time.Millisecond)
	if f.Tripped() {
		t.Fatal("stopped watcher still tripped the flag")
	}
}

// gatedCtx is a canceled context whose Err blocks until gate closes,
// freezing a watcher between its decision to trip and the trip itself.
type gatedCtx struct {
	context.Context
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (c *gatedCtx) Err() error {
	c.once.Do(func() { close(c.entered) })
	<-c.gate
	return context.Canceled
}

// TestWatchStopWaitsForTrip pins the reuse contract: a watcher that had
// already decided to trip when stop was called finishes before stop
// returns, so a Reset right after stop is never undone by a late trip
// (which would cancel the next run on a reused flag).
func TestWatchStopWaitsForTrip(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := &gatedCtx{Context: parent, entered: make(chan struct{}), gate: make(chan struct{})}
	var f Flag
	stop := Watch(ctx, &f)
	<-ctx.entered // the watcher is past its quit check, inside Err
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(ctx.gate)
	}()
	stop()
	f.Reset()
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if f.Tripped() {
			t.Fatal("watcher tripped the flag after stop returned")
		}
		time.Sleep(time.Millisecond)
	}
}
