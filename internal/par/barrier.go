package par

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spantree/internal/obs"
)

// Barrier is a centralized sense-reversing barrier, the runtime's one
// software barrier (the paper's implementation used the software
// barriers of the SIMPLE methodology, Bader & JáJá; the Helman–JáJá
// analysis charges each episode one unit of B whatever its design).
// Arrivals decrement a shared counter; the last arriver resets the
// counter and flips the global sense, releasing the waiters. Waiters
// block on a condition variable rather than spinning, which keeps the
// barrier correct and fair when the host has fewer cores than
// participants.
//
// Team synchronizes through one, and so does the work-stealing
// traversal's one concurrent driver, the Workspace team in
// internal/core.
type Barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	p        int
	waiting  int
	sense    bool
	aborted  bool
	episodes atomic.Int64 // completed episodes, numbering the trace events
	obs      *obs.Recorder
}

// NewBarrier returns a barrier for p participants.
func NewBarrier(p int) *Barrier {
	if p < 1 {
		panic(fmt.Sprintf("par: NewBarrier(%d) needs p >= 1", p))
	}
	b := &Barrier{p: p}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Observe attaches an observability recorder: each Wait counts one
// BarrierWaits for its participant, and each completed episode adds one
// run-global barrier episode (plus an EvBarrier trace event). Must be
// called before the barrier is in concurrent use.
func (b *Barrier) Observe(rec *obs.Recorder) { b.obs = rec }

// Wait blocks until all participants arrive. The tid argument only
// attributes the wait to a worker in the observability layer; the
// synchronization itself is tid-independent.
func (b *Barrier) Wait(tid int) { b.WaitAbortable(tid) }

// WaitAbortable is Wait with a cooperative escape hatch: it returns true
// when the episode completed normally and false when Abort released it
// (or had already been called). After a false return the barrier is
// spent — the team must drain, not synchronize again.
func (b *Barrier) WaitAbortable(tid int) bool {
	b.obs.Worker(tid).Incr(obs.BarrierWaits)
	b.mu.Lock()
	if b.aborted {
		b.mu.Unlock()
		return false
	}
	mySense := b.sense
	b.waiting++
	if b.waiting == b.p {
		b.waiting = 0
		b.sense = !b.sense
		ep := b.episodes.Add(1)
		b.mu.Unlock()
		b.obs.AddBarrierEpisodes(1)
		b.obs.Trace(tid, obs.EvBarrier, ep, 0)
		b.cond.Broadcast()
		return true
	}
	for b.sense == mySense && !b.aborted {
		b.cond.Wait()
	}
	aborted := b.aborted
	b.mu.Unlock()
	return !aborted
}

// Abort permanently releases every current and future waiter, so a run
// that stops early (cancellation, an isolated worker panic) leaves no
// goroutine parked in a half-filled episode. Idempotent and safe to
// call concurrently with Wait.
func (b *Barrier) Abort() {
	b.mu.Lock()
	b.aborted = true
	b.mu.Unlock()
	b.cond.Broadcast()
}
