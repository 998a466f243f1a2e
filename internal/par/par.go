// Package par is the SMP runtime: it runs a fixed team of p virtual
// processors (goroutines), gives each a processor id, and provides the
// software barrier, block partitioning, the work-stealing parallel-for
// with its drain chunk and steal threshold, and reductions — the
// programming model of the paper's POSIX-threads implementation,
// transplanted onto goroutines. The work-stealing traversal in
// internal/core shares its barrier, chunk and steal threshold.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
)

// Team is a reusable group of p virtual processors sharing a barrier,
// reduction scratch space, and the dynamic-scheduling state of
// ForDynamic. Create one per algorithm invocation.
type Team struct {
	p       int
	bar     *Barrier
	model   *smpmodel.Model
	obs     *obs.Recorder
	scratch []pad64 // per-processor reduction slots
	dyn     dynState
	// flag is the run's cooperative stop flag: tripped by the caller's
	// context (via Cancel) or by the panic-isolation wrapper. Every
	// barrier entry and every ForDynamic chunk boundary polls it.
	flag *fault.Flag
	// inj is the chaos fault injector (nil, and compiled to no-ops, in
	// default builds).
	inj *chaos.Injector
}

// teamAbort is the sentinel panic that unwinds a worker out of
// arbitrarily nested algorithm loops once the run's flag has tripped.
// RunErr's recover wrapper swallows it; the flag already records why.
type teamAbort struct{}

type pad64 struct {
	v int64
	_ [7]int64
}

// NewTeam returns a team of p virtual processors. model may be nil for
// un-instrumented runs.
func NewTeam(p int, model *smpmodel.Model) *Team {
	if p < 1 {
		panic(fmt.Sprintf("par: NewTeam(%d) needs p >= 1", p))
	}
	t := &Team{
		p:       p,
		bar:     NewBarrier(p),
		model:   model,
		scratch: make([]pad64, p),
		flag:    &fault.Flag{},
	}
	t.dyn.init(p)
	return t
}

// Cancel attaches the run's cooperative stop flag (shared with the
// caller's context watcher); nil keeps the team's private flag, which
// only panic isolation can trip. Call before Run, like Observe.
func (t *Team) Cancel(f *fault.Flag) *Team {
	if f != nil {
		t.flag = f
	}
	return t
}

// Chaos attaches a fault injector to the team's barriers and dynamic
// loops. Call before Run. Nil (and every call in a default, non-chaos
// build) is a no-op.
func (t *Team) Chaos(inj *chaos.Injector) *Team {
	t.inj = inj
	return t
}

// NumProcs returns the team size.
func (t *Team) NumProcs() int { return t.p }

// Model returns the team's cost model (possibly nil).
func (t *Team) Model() *smpmodel.Model { return t.model }

// Observe attaches an observability recorder to the team and its
// barrier: barrier waits/episodes are recorded by the barrier, and each
// Ctx exposes a per-processor counter handle via Ctx.Obs. Call before
// Run. A nil recorder is a no-op sink.
func (t *Team) Observe(rec *obs.Recorder) *Team {
	t.obs = rec
	t.bar.Observe(rec)
	return t
}

// Run executes fn on all p virtual processors concurrently and waits for
// all of them. Each invocation receives a Ctx bound to its processor id.
// A panic on any processor is re-raised on the caller after all
// processors finish or panic (the other processors are released from
// any barrier they were parked in, so no goroutine leaks).
func (t *Team) Run(fn func(c *Ctx)) {
	if err := t.RunErr(fn); err != nil {
		if pe, ok := fault.AsPanicError(err); ok {
			panic(pe.Value)
		}
		panic(err)
	}
}

// RunErr is Run with the hardened contract: a worker panic is isolated
// (recovered, recorded per-worker in obs, the team's flag tripped, the
// barrier aborted so the remaining workers drain) and returned as a
// typed *fault.PanicError; a run stopped by the attached cancel flag
// returns fault.ErrCanceled / fault.ErrDeadline. All p workers have
// exited when RunErr returns, whatever the outcome.
func (t *Team) RunErr(fn func(c *Ctx)) error {
	var wg sync.WaitGroup
	wg.Add(t.p)
	for tid := 0; tid < t.p; tid++ {
		go func(tid int) {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					return
				}
				if _, ok := r.(teamAbort); ok {
					return // cooperative unwind; the flag holds the cause
				}
				ow := t.obs.Worker(tid)
				ow.Incr(obs.PanicsRecovered)
				ow.Trace(obs.EvPanic, 0, 0)
				t.flag.TripPanic(&fault.PanicError{
					Worker: tid, Value: r, Stack: debug.Stack(),
				})
				t.bar.Abort()
			}()
			fn(&Ctx{team: t, tid: tid, probe: t.model.Probe(tid), obs: t.obs.Worker(tid)})
		}(tid)
	}
	wg.Wait()
	return t.flag.Err()
}

// Ctx is one virtual processor's view of the team.
type Ctx struct {
	team  *Team
	tid   int
	probe *smpmodel.Probe
	obs   *obs.Worker
}

// TID returns the processor id in [0, NumProcs).
func (c *Ctx) TID() int { return c.tid }

// NumProcs returns the team size.
func (c *Ctx) NumProcs() int { return c.team.p }

// Probe returns this processor's cost-model probe (nil-safe to use).
func (c *Ctx) Probe() *smpmodel.Probe { return c.probe }

// Obs returns this processor's observability counter handle (nil-safe
// to use; a no-op sink when the team has no recorder attached).
func (c *Ctx) Obs() *obs.Worker { return c.obs }

// Canceled reports whether the run's stop flag has tripped (one atomic
// load; false when no flag was attached and no panic occurred).
func (c *Ctx) Canceled() bool { return c.team.flag.Tripped() }

// abort unwinds this worker cooperatively: the barrier is aborted so no
// teammate stays parked, and the teamAbort sentinel carries the unwind
// to RunErr's recover wrapper. The flag must already be tripped.
func (c *Ctx) abort() {
	c.obs.Incr(obs.Cancels)
	c.obs.Trace(obs.EvCancel, int64(c.team.flag.Cause()), 0)
	c.team.bar.Abort()
	panic(teamAbort{})
}

// Barrier synchronizes all processors of the team and charges one
// barrier to the cost model (recorded once, by processor 0). When the
// run's stop flag trips, Barrier never parks a worker for good: the
// episode is aborted and every participant unwinds to RunErr instead of
// synchronizing.
func (c *Ctx) Barrier() {
	c.team.inj.Visit(c.tid, chaos.PointBarrier)
	if c.team.flag.Tripped() {
		c.abort()
	}
	if c.tid == 0 {
		c.team.model.AddBarriers(1)
	}
	if !c.team.bar.WaitAbortable(c.tid) {
		c.obs.Incr(obs.Cancels)
		c.obs.Trace(obs.EvCancel, int64(c.team.flag.Cause()), 0)
		panic(teamAbort{})
	}
}

// Block returns this processor's contiguous share [lo, hi) of n items
// under the standard balanced block partition.
func (c *Ctx) Block(n int) (lo, hi int) {
	return BlockRange(n, c.team.p, c.tid)
}

// BlockRange splits n items into p nearly equal contiguous blocks and
// returns block tid as [lo, hi). Blocks differ in size by at most one.
func BlockRange(n, p, tid int) (lo, hi int) {
	q, r := n/p, n%p
	lo = tid*q + min(tid, r)
	hi = lo + q
	if tid < r {
		hi++
	}
	return lo, hi
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ReduceMax writes x into this processor's slot, synchronizes, and
// returns the team-wide maximum. Involves two barriers so the scratch
// space can be reused immediately after return.
func (c *Ctx) ReduceMax(x int64) int64 {
	c.team.scratch[c.tid].v = x
	c.Barrier()
	best := c.team.scratch[0].v
	for i := 1; i < c.team.p; i++ {
		if c.team.scratch[i].v > best {
			best = c.team.scratch[i].v
		}
	}
	c.Barrier()
	return best
}

// ReduceOr behaves like ReduceMax with boolean OR.
func (c *Ctx) ReduceOr(x bool) bool {
	var v int64
	if x {
		v = 1
	}
	return c.ReduceMax(v) != 0
}
