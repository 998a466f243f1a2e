package spantree

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"spantree/internal/core"
	"spantree/internal/fault"
)

// ErrSessionClosed is returned by Session.FindContext after Close and by
// SessionPool.Acquire after the pool is closed.
var ErrSessionClosed = errors.New("spantree: session closed")

// SessionOptions configures NewSession and NewSessionPool.
type SessionOptions struct {
	// NumProcs is the number of virtual processors; 0 means 1.
	NumProcs int
	// FallbackThreshold enables the pathological-case detection (see
	// Options.FallbackThreshold). A triggered fallback allocates — only
	// the traversal itself is pooled.
	FallbackThreshold int
	// StallBudget, if > 0, arms the stuck-run watchdog exactly as in
	// core.Options.StallBudget: a run in which no worker advances for a
	// full budget returns ErrStalled with the session left reusable.
	// 0 disables the watchdog.
	StallBudget time.Duration

	// testHook, when non-nil, runs at every worker chunk boundary (see
	// core.WithTestHook) — in-package test plumbing for driving stalls
	// and panics at exact points; never settable by external callers.
	testHook func(tid int)
}

func (o SessionOptions) withDefaults() SessionOptions {
	if o.NumProcs == 0 {
		o.NumProcs = 1
	}
	return o
}

// Session is a reusable, pre-provisioned runtime for the work-stealing
// algorithm on one fixed graph: every buffer, the graph's compact CSR
// mirror included, is allocated at construction and the worker team is
// spawned once and parked between requests, so a warmed session
// executes FindContext with zero steady-state heap allocations (a
// cancellable context adds only its own watcher; context.Background
// stays allocation-free).
//
// A Session is NOT safe for concurrent use — serialize requests or use
// a SessionPool, which hands each workspace to one request at a time.
// The Result returned by FindContext (its Parent slice and statistics
// included) is owned by the session and valid only until the next
// FindContext call: consume or copy it before reusing or releasing the
// session.
type Session struct {
	w      *core.Workspace
	res    Result
	closed bool
}

// NewSession builds and warms a session for g. Like Find, it needs
// fewer than 2^32 adjacency slots and returns an error on a larger
// graph. Construction also peels g's pendant trees once, so that every
// run starts with them already claimed (core.Workspace).
func NewSession(g *Graph, opt SessionOptions) (*Session, error) {
	if g == nil {
		return nil, fmt.Errorf("spantree: nil graph")
	}
	o := opt.withDefaults()
	if o.NumProcs < 1 {
		return nil, fmt.Errorf("spantree: NumProcs = %d, need >= 0", opt.NumProcs)
	}
	co := core.Options{
		NumProcs:          o.NumProcs,
		FallbackThreshold: o.FallbackThreshold,
		StallBudget:       o.StallBudget,
	}
	if o.testHook != nil {
		co = core.WithTestHook(co, o.testHook)
	}
	w, err := core.NewWorkspace(g, co)
	if err != nil {
		return nil, err
	}
	// One throwaway run absorbs the one-time costs (the runtime's
	// first-use allocations behind the parked team's channel and barrier
	// waits), so the first real request already runs allocation-free; a
	// second warmup left no fewer first requests allocating. It runs
	// with the stall watchdog disarmed: it is a construction run, not a
	// request the budget is sized for.
	if err := w.Warmup(1); err != nil {
		w.Close()
		return nil, fmt.Errorf("spantree: session warmup: %w", err)
	}
	return &Session{w: w}, nil
}

// run executes one pooled run and fills the session-owned Result.
func (s *Session) run(seed uint64) (*Result, error) {
	start := time.Now()
	s.res = Result{Algorithm: AlgWorkStealing}
	parent, stats, err := s.w.Run(seed)
	if err != nil {
		return nil, err
	}
	s.res.Parent, s.res.WorkStealing = parent, stats
	s.res.Elapsed = time.Since(start)
	s.res.Roots = stats.Roots
	s.res.TreeEdges = len(parent) - s.res.Roots
	return &s.res, nil
}

// NumProcs returns the session's worker count.
func (s *Session) NumProcs() int { return s.w.NumProcs() }

// Graph returns the graph the session was built for.
func (s *Session) Graph() *Graph { return s.w.Graph() }

// Find is FindContext with a background context (the allocation-free
// fast path: no watch is registered).
func (s *Session) Find(seed uint64) (*Result, error) {
	return s.FindContext(context.Background(), seed)
}

// FindContext runs the work-stealing algorithm on the pooled buffers with
// the same cancellation contract as the package-level FindContext: a
// canceled context returns ErrCanceled, an expired deadline ErrDeadline
// (an already-expired context is rejected before any worker wakes), and
// an isolated worker panic degrades to the sequential path, still
// yielding a valid forest. After any outcome — success, cancel, panic —
// the session remains reusable.
func (s *Session) FindContext(ctx context.Context, seed uint64) (*Result, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	// The workspace flag is rearmed here, before the watch is armed, so a
	// trip that lands between Watch and Run is never lost.
	flag := s.w.Flag()
	flag.Reset()
	stop := fault.Watch(ctx, flag)
	defer stop()
	if err := ctx.Err(); err != nil {
		flag.TripContext(err)
		return nil, flag.Err()
	}
	return s.run(seed)
}

// Close releases the session's parked worker team. Idempotent; must not
// race FindContext.
func (s *Session) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.w.Close()
}

// SessionPool is a fixed-size freelist of warmed sessions for one graph.
// Unlike sync.Pool it never drops or lazily recreates members — the
// worker teams of its sessions are durable, so the goroutine count of a
// serving process is size*NumProcs regardless of request count — and
// Close deterministically releases every team.
type SessionPool struct {
	free chan *Session
	all  []*Session
	mu   sync.Mutex
	done bool
}

// NewSessionPool builds size warmed sessions for g. Construction cost is
// paid once, up front (size teams spawned, size throwaway warmup runs).
func NewSessionPool(g *Graph, opt SessionOptions, size int) (*SessionPool, error) {
	if size < 1 {
		return nil, fmt.Errorf("spantree: session pool size = %d, need >= 1", size)
	}
	p := &SessionPool{free: make(chan *Session, size)}
	for i := 0; i < size; i++ {
		s, err := NewSession(g, opt)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.all = append(p.all, s)
		p.free <- s
	}
	return p, nil
}

// Size returns the pool's session count.
func (p *SessionPool) Size() int { return len(p.all) }

// Acquire returns a free session, blocking until one is released or ctx
// is done. The caller must Release it (after consuming the Result of
// any FindContext call — the result's buffers go back into the pool
// with the session).
func (p *SessionPool) Acquire(ctx context.Context) (*Session, error) {
	select {
	case s, ok := <-p.free:
		if !ok {
			return nil, ErrSessionClosed
		}
		return s, nil
	default:
	}
	select {
	case s, ok := <-p.free:
		if !ok {
			return nil, ErrSessionClosed
		}
		return s, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TryAcquire returns a free session without blocking, or false when the
// pool is empty or closed — the admission-control hook: a serving layer
// maps false onto its typed overload rejection.
func (p *SessionPool) TryAcquire() (*Session, bool) {
	select {
	case s, ok := <-p.free:
		return s, ok
	default:
		return nil, false
	}
}

// Release returns s to the pool. After Close, released sessions are
// retired instead.
func (p *SessionPool) Release(s *Session) {
	if s == nil {
		return
	}
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		s.Close()
		return
	}
	// The channel is buffered to the pool size and only holds pool
	// members, so this send never blocks; under mu it cannot race the
	// close in Close.
	p.free <- s
	p.mu.Unlock()
}

// Close retires the pool: free sessions are closed now, in-flight ones
// when released. Acquire fails from this point on. Idempotent.
func (p *SessionPool) Close() {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.done = true
	p.mu.Unlock()
	close(p.free)
	for s := range p.free {
		s.Close()
	}
}
