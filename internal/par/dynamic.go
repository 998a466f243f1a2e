package par

// This file is the shared dynamic execution layer: a work-stealing
// parallel-for over index ranges with the drain chunk and p-scaled
// steal threshold of internal/sched — the same runtime discipline as
// the work-stealing traversal in internal/core, exposed to every
// algorithm in the tree. Porting a hot loop from ForStatic to
// ForDynamic is a one-line change; the -chunk flag then governs it like
// everything else.
//
// Scheduling works on contiguous index ranges, not queued items: each
// worker starts from its static block of [0, n) held in a per-worker
// range slot, drains the front of its own slot in fixed-size chunks,
// and when empty raids the other slots, moving the upper half
// of a victim's remaining range into its own slot (steal-half, as in
// wsq, but O(1) on ranges). A slot is a mutex-guarded [lo, hi) plus an
// atomic size mirror so thieves can scan victims without touching their
// locks — the same two-step probe the traversal queues use.
//
// Like ForStatic, ForDynamic has no entry or exit barrier: a worker
// returns when its slot is empty and no victim has a stealable surplus,
// so callers pair it with Barrier exactly as before and the modeled
// barrier count B is unchanged by a port. Ranges still in shallow slots
// at that point are finished by their owners (a worker never abandons a
// non-empty slot), which keeps the exactly-once guarantee without a
// termination protocol. Because there is no barrier, a slot is tagged
// with its owner's call number and thieves validate the tag under the
// victim's lock: a worker that has already raced ahead into the next
// ForDynamic call publishes a new tag, and stragglers of the previous
// call simply stop stealing from it.
//
// Determinism contract: with a cost model attached, ForDynamic runs
// each worker's static block in fixed-size chunks with no
// stealing, charging the same per-drain costs the real path would pay
// (T_M += 2 noncontiguous accesses per drain boundary, as in the
// traversal's batched hot path) plus each worker's terminal steal scan
// (p-1 victim probes and one fruitless poll — the coordination floor
// every schedule pays). Modeled figures therefore stay reproducible
// run-to-run — the lockstep-driver rule, applied to the substrate —
// while wall-clock runs (nil model) get the full work-stealing path.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/obs"
	"spantree/internal/sched"
)

// DefaultChunkSize is the drain chunk ForDynamic uses when the team's
// chunk size is unset (re-exported so algorithm packages need not
// import the scheduling layer).
const DefaultChunkSize = sched.DefaultChunkSize

// dynSlot is one worker's shareable range of the iteration space.
// lo/hi/tag are guarded by mu; size mirrors hi-lo and tag is readable
// without mu, so thieves can filter victims without taking their locks.
// Padded out so neighboring workers' slots don't false-share.
type dynSlot struct {
	mu     sync.Mutex
	lo, hi int
	tag    atomic.Int64
	size   atomic.Int64
	_      [4]int64
}

// dynCalls is one worker's ForDynamic invocation count, which tags its
// slot. Padded like dynSlot.
type dynCalls struct {
	n int64
	_ [7]int64
}

// dynState is the per-team half of the dynamic layer.
type dynState struct {
	slots []dynSlot
	calls []dynCalls
	chunk int
}

func (d *dynState) init(p int) {
	d.slots = make([]dynSlot, p)
	d.calls = make([]dynCalls, p)
	d.chunk = DefaultChunkSize
}

// Chunk sets the team's drain chunk (the -chunk knob) for ForDynamic
// loops: each drain claims at most size items. Call before Run, like
// Observe; size <= 0 keeps DefaultChunkSize.
func (t *Team) Chunk(size int) *Team {
	if size > 0 {
		t.dyn.chunk = size
	}
	return t
}

// ForDynamic runs body(i) for every i in [0, n) across the team with
// work-stealing and fixed-size chunks. All processors must call it
// collectively with the same n and an equivalent body; each i is
// executed exactly once, by whichever worker claims it. Like ForStatic
// there is no implied barrier — pair with Barrier as needed.
//
// Cancellation cadence: the team's fault flag is polled once per drain
// chunk (and per steal scan), never per item — the poll piggybacks on
// the chunk boundary the loop already pays for, so hardening adds one
// atomic load per chunk. The latency bound that buys: after a trip,
// each worker finishes at most the chunk it already claimed before
// unwinding, so at most p chunks of body calls run after the flag is
// visible — one chunk per worker. Algorithms whose per-item work is
// unbounded (edge sweeps over skewed degree distributions) inherit the
// bound in items, not edges: a pathological vertex extends the window
// by its own degree only.
func (c *Ctx) ForDynamic(n int, body func(i int)) {
	calls := &c.team.dyn.calls[c.tid]
	calls.n++
	if n <= 0 {
		return
	}
	var lc obs.Local
	if c.team.model != nil {
		c.forDynamicModeled(n, body, &lc)
	} else {
		c.forDynamicSteal(n, body, calls.n, &lc)
	}
	lc.FlushTo(c.obs)
}

// forDynamicModeled is the deterministic path used whenever a cost
// model is attached: the worker keeps its static block (so T_M is a
// pure function of input and p, never of steal timing) but pays the
// dynamic layer's drain cadence — 2 noncontiguous accesses per chunk
// boundary — and reports its drains in the same counters.
//
// Steal traffic is charged at its deterministic floor: the wall-clock
// path's workers each run one terminal steal scan before returning —
// p-1 lock-free size probes that find every slot empty or too shallow,
// then one fruitless poll before giving up. That coordination traffic
// exists on every schedule, so the model charges it per worker; what
// stays out is the timing-dependent part (successful steals and
// retries), which would make T_M a function of the schedule.
func (c *Ctx) forDynamicModeled(n int, body func(i int), lc *obs.Local) {
	lo, hi := c.Block(n)
	for lo < hi {
		if c.team.flag.Tripped() {
			lc.FlushTo(c.obs)
			c.abort()
		}
		k := min(c.team.dyn.chunk, hi-lo)
		c.probe.NonContig(2)
		lc.Incr(obs.ChunkDrains)
		lc.Add(obs.DrainedVertices, int64(k))
		lc.Incr(obs.DrainHistBucket(k))
		for i := lo; i < lo+k; i++ {
			body(i)
		}
		lo += k
	}
	if p := c.team.p; p > 1 {
		c.probe.NonContig(int64(p-1) + 1) // terminal victim scan + fruitless poll
		lc.Incr(obs.StealAttempts)
		lc.Incr(obs.StealFailures)
	}
}

// forDynamicSteal is the wall-clock path: drain the front of the own
// slot in fixed-size chunks; when empty, raid the other slots for
// the upper half of a victim's range.
func (c *Ctx) forDynamicSteal(n int, body func(i int), call int64, lc *obs.Local) {
	d := &c.team.dyn
	p := c.team.p
	minSteal := sched.MinStealLen(p)
	my := &d.slots[c.tid]

	lo, hi := c.Block(n)
	my.mu.Lock()
	my.lo, my.hi = lo, hi
	my.tag.Store(call)
	my.size.Store(int64(hi - lo))
	my.mu.Unlock()

	for {
		// Drain the own slot to empty. The cancel poll and the chaos visit
		// piggyback on the chunk boundary the drain already pays for, so
		// the hardened loop adds one atomic load per locked drain, not per
		// item.
		for {
			if c.team.flag.Tripped() {
				lc.FlushTo(c.obs)
				c.abort()
			}
			c.team.inj.Visit(c.tid, chaos.PointDrain)
			my.mu.Lock()
			k := min(d.chunk, my.hi-my.lo)
			lo = my.lo
			my.lo += k
			my.size.Store(int64(my.hi - my.lo))
			my.mu.Unlock()
			if k == 0 {
				break
			}
			lc.Incr(obs.ChunkDrains)
			lc.Add(obs.DrainedVertices, int64(k))
			lc.Incr(obs.DrainHistBucket(k))
			for i := lo; i < lo+k; i++ {
				body(i)
			}
		}
		if p == 1 || !c.dynSteal(call, minSteal, lc) {
			return
		}
	}
}

// dynSteal scans the other workers' slots for a range worth taking and
// moves the upper half of the first such range into this worker's slot.
// It retries while some victim shows a stealable surplus (a lost lock
// race is not starvation) and returns false once every victim is empty
// or too shallow to raid — counting a failed steal when some victim
// still held sub-threshold work, the starvation the steal threshold
// leaves behind.
func (c *Ctx) dynSteal(call int64, minSteal int, lc *obs.Local) bool {
	d := &c.team.dyn
	p := c.team.p
	for {
		if c.team.flag.Tripped() {
			lc.FlushTo(c.obs)
			c.abort()
		}
		c.team.inj.Visit(c.tid, chaos.PointSteal)
		anyDeep := false
		for off := 1; off < p; off++ {
			v := (c.tid + off) % p
			vs := &d.slots[v]
			// Lock-free probe; the tag filter keeps a straggler from
			// spinning on workers already gone ahead into a later call.
			if int(vs.size.Load()) < minSteal || vs.tag.Load() != call {
				continue
			}
			anyDeep = true
			lc.Incr(obs.StealAttempts)
			// A vetoed steal counts as a lost lock race: the range stays
			// with its owner and the thief retries after a yield, which is
			// exactly the delayed-steal schedule the chaos layer wants.
			if c.team.inj.VetoSteal(c.tid) {
				continue
			}
			vs.mu.Lock()
			rem := vs.hi - vs.lo
			if vs.tag.Load() != call || rem < minSteal {
				vs.mu.Unlock()
				continue
			}
			mid := vs.lo + rem/2
			stolenLo, stolenHi := mid, vs.hi
			vs.hi = mid
			vs.size.Store(int64(mid - vs.lo))
			vs.mu.Unlock()

			my := &d.slots[c.tid]
			my.mu.Lock()
			my.lo, my.hi = stolenLo, stolenHi
			my.size.Store(int64(stolenHi - stolenLo))
			my.mu.Unlock()
			lc.Incr(obs.StealSuccesses)
			return true
		}
		if !anyDeep {
			// Fully fruitless pass: every matching slot is below the
			// steal threshold. It is a failed steal if some victim still
			// holds items this worker could not take.
			for off := 1; off < p; off++ {
				vs := &d.slots[(c.tid+off)%p]
				if vs.size.Load() > 0 && vs.tag.Load() == call {
					lc.Incr(obs.StealFailures)
					break
				}
			}
			return false
		}
		runtime.Gosched()
	}
}
