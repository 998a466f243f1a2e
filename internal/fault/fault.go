// Package fault is the shared run-abort substrate of the parallel
// runtime: one cooperative cancel flag that every driver (the
// work-stealing traversal in internal/core, the lockstep driver, and
// the par.Team loops of the PRAM-style algorithms) polls at its chunk
// boundaries, plus the typed errors a caller receives when a run ends
// for a reason other than completion.
//
// The design mirrors the scheduler layer: exactly one implementation of
// "should this run stop, and why" serves the whole tree. A Flag trips
// exactly once with a Cause; later trips lose and the first cause wins,
// so a panic that races a deadline reports deterministically whichever
// tripped first. Workers never block on the flag — they load one atomic
// at points where they already pay a synchronization (drain boundaries,
// barrier entries, idle transitions), which is what keeps the hardened
// hot path inside the pre-hardening noise budget.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Cause says why a run stopped early.
type Cause int32

const (
	// CauseNone: the flag never tripped (the run completed).
	CauseNone Cause = iota
	// CauseCanceled: the caller's context was canceled.
	CauseCanceled
	// CauseDeadline: the caller's context deadline expired.
	CauseDeadline
	// CausePanicked: a worker panicked; the run drained cooperatively
	// and the panic value is held by the flag.
	CausePanicked
	// CauseStalled: the run's coordinator observed no worker progress
	// within the stall budget and aborted the run.
	CauseStalled
)

// String returns a short name for the cause.
func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseCanceled:
		return "canceled"
	case CauseDeadline:
		return "deadline"
	case CausePanicked:
		return "panicked"
	case CauseStalled:
		return "stalled"
	}
	return fmt.Sprintf("cause(%d)", int32(c))
}

// ErrCanceled is returned when a run was stopped by context
// cancellation. It wraps context.Canceled, so
// errors.Is(err, context.Canceled) also holds.
var ErrCanceled = fmt.Errorf("spantree: run canceled: %w", context.Canceled)

// ErrDeadline is returned when a run was stopped by a context deadline.
// It wraps context.DeadlineExceeded.
var ErrDeadline = fmt.Errorf("spantree: run deadline exceeded: %w", context.DeadlineExceeded)

// ErrStalled is returned when a run was aborted because no worker made
// progress within the stall budget. The run drained cooperatively, so a
// pooled session stays reusable after it.
var ErrStalled = errors.New("spantree: run stalled: no worker progress within the stall budget")

// PanicError reports a worker panic that the runtime isolated: the
// remaining workers drained cleanly and, where the algorithm supports
// it, the caller still received a valid result from the sequential
// degradation path.
type PanicError struct {
	// Worker is the virtual processor id of the panicking worker, or -1
	// when the panic happened outside a worker body.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("spantree: worker %d panicked: %v", e.Worker, e.Value)
}

// AsPanicError returns the *PanicError in err's chain, if any.
func AsPanicError(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// Flag is a one-shot, cause-carrying cancel flag shared by the workers
// of one run. The zero value is ready to use; a nil *Flag is a valid
// never-tripping flag, so un-hardened callers pass nil and pay only the
// nil check.
type Flag struct {
	cause atomic.Int32
	// panicErr holds the first PanicError when cause == CausePanicked.
	panicErr atomic.Pointer[PanicError]
}

// Reset rearms the flag for a new run: the cause returns to CauseNone
// and any recorded PanicError is dropped. It is the reuse hook for
// pooled sessions, which keep one Flag per workspace instead of
// allocating one per request. The caller must guarantee no worker of a
// previous run still polls the flag (i.e. the previous run has fully
// drained) — Reset is not synchronized against concurrent Trip.
func (f *Flag) Reset() {
	if f == nil {
		return
	}
	f.cause.Store(int32(CauseNone))
	f.panicErr.Store(nil)
}

// Trip trips the flag with the given cause. Only the first trip wins;
// Trip reports whether this call was it.
func (f *Flag) Trip(c Cause) bool {
	if f == nil || c == CauseNone {
		return false
	}
	return f.cause.CompareAndSwap(int32(CauseNone), int32(c))
}

// TripPanic trips the flag with CausePanicked, recording pe. Reports
// whether this call won (a losing panic is dropped: the first stop
// cause owns the run's outcome).
func (f *Flag) TripPanic(pe *PanicError) bool {
	if f == nil || pe == nil {
		return false
	}
	if !f.cause.CompareAndSwap(int32(CauseNone), int32(CausePanicked)) {
		return false
	}
	f.panicErr.Store(pe)
	return true
}

// Tripped reports whether the flag has tripped. This is the hot-path
// poll: one atomic load, nil-safe.
func (f *Flag) Tripped() bool {
	return f != nil && f.cause.Load() != int32(CauseNone)
}

// Cause returns why the flag tripped (CauseNone when it did not).
func (f *Flag) Cause() Cause {
	if f == nil {
		return CauseNone
	}
	return Cause(f.cause.Load())
}

// Panic returns the recorded PanicError when the flag tripped with
// CausePanicked (nil otherwise). The store follows the winning CAS, so
// spin briefly for the racing writer.
func (f *Flag) Panic() *PanicError {
	if f == nil || f.Cause() != CausePanicked {
		return nil
	}
	for {
		if pe := f.panicErr.Load(); pe != nil {
			return pe
		}
	}
}

// Err maps the flag's cause onto the typed error the caller receives:
// nil when the flag never tripped, ErrCanceled/ErrDeadline for context
// stops, and the recorded *PanicError for a panic stop.
func (f *Flag) Err() error {
	switch f.Cause() {
	case CauseCanceled:
		return ErrCanceled
	case CauseDeadline:
		return ErrDeadline
	case CausePanicked:
		return f.Panic()
	case CauseStalled:
		return ErrStalled
	}
	return nil
}

// Watch trips f when ctx is done, translating ctx.Err() into
// CauseCanceled or CauseDeadline. It returns a stop function that must
// be called (typically deferred) to release the watch; stop is
// idempotent and returns only once no trip can land, so a caller may
// Reset f and start the next run right away. The trip is registered
// with context.AfterFunc, which on contexts from WithCancel, WithTimeout
// and WithDeadline runs no goroutine until ctx is done. Only a context
// that is already done when Watch is called gets a goroutine of its
// own, so that Watch itself never waits on ctx.Err. When ctx can never
// be canceled (context.Background()), nothing is registered and stop
// is a no-op.
func Watch(ctx context.Context, f *Flag) (stop func()) {
	done := ctx.Done()
	if done == nil || f == nil {
		return func() {}
	}
	w := &watch{ctx: ctx, f: f}
	select {
	case <-done:
		go w.trip()
	default:
		w.release = context.AfterFunc(ctx, w.trip)
	}
	return w.stop
}

// watch is one Watch registration. mu orders the trip against stop: a
// trip that starts after stop finds stopped set, and stop waits out a
// trip already under way.
type watch struct {
	ctx     context.Context
	f       *Flag
	release func() bool // the AfterFunc deregistration; nil for a done ctx
	mu      sync.Mutex
	stopped bool
}

func (w *watch) trip() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.stopped {
		w.f.Trip(causeOf(w.ctx.Err()))
	}
}

func (w *watch) stop() {
	w.mu.Lock()
	w.stopped = true
	w.mu.Unlock()
	if w.release != nil {
		w.release()
	}
}

// TripContext trips f from a context error (ctx.Err()), translating it
// into CauseCanceled or CauseDeadline. A nil err is a no-op, so callers
// can feed ctx.Err() unconditionally for a synchronous already-expired
// check that doesn't race the watch's own trip.
func (f *Flag) TripContext(err error) bool {
	if err == nil {
		return false
	}
	return f.Trip(causeOf(err))
}

// causeOf maps a context error onto a Cause.
func causeOf(err error) Cause {
	if errors.Is(err, context.DeadlineExceeded) {
		return CauseDeadline
	}
	return CauseCanceled
}
