package par

// This file is the shared dynamic execution layer: a work-stealing
// parallel-for over index ranges, exposed to every algorithm in the
// tree, with the one drain chunk and the p-scaled steal threshold that
// the work-stealing traversal in internal/core reads from here too.
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
// ForDynamic has no entry or exit barrier: a worker returns when its
// slot is empty and no victim has a stealable surplus, so callers pair
// it with Barrier and the modeled barrier count B is that of the
// algorithm's own barriers. Ranges still in shallow slots
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
)

// DefaultChunkSize is the drain chunk of every parallel loop in the
// tree: a worker takes up to this many items per lock acquisition,
// paying ~2 lock operations per chunk instead of per item. The items of
// a drain are hidden from thieves until processed, so a big chunk trades
// frontier visibility for lock amortization. A fixed 256 was as fast as
// per-worker adaptive chunking on the benchmark workloads and at or
// below it in the modeled chunk ablation (EXPERIMENTS.md, "Adaptive
// chunk deleted"). Only that ablation drains other chunks, through the
// work-stealing traversal's options; 1 reproduces the unbatched
// per-item hot path.
const DefaultChunkSize = 256

// MinStealLen returns the smallest victim queue worth stealing from at
// processor count p: max(2, p/2). The floor of 2 leaves a single
// in-flight item to its owner — ripping it would only relocate the
// serial bottleneck while thrashing the queues. The p/2 scaling
// addresses the bursty re-idling seen at high p on small inputs: with
// many thieves, halving a 2-element queue hands each of them at most
// one item, which they exhaust immediately and re-idle, so the steal
// threshold must grow with the number of mouths a steal feeds. This is
// also what makes the paper's starvation scenario real — "queues of the
// busy processors may contain only a few elements (in extreme cases ...
// only one element). In this case work awaits busy processors while
// idle processors starve" — and therefore what the idle-detection
// fallback exists to catch.
func MinStealLen(p int) int {
	if m := p / 2; m > 2 {
		return m
	}
	return 2
}

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

// dynState is the per-team half of the dynamic layer. chunk is
// DefaultChunkSize; the in-package tests vary it.
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

// ForDynamic runs body(i) for every i in [0, n) across the team with
// work-stealing and fixed-size chunks. All processors must call it
// collectively with the same n and an equivalent body; each i is
// executed exactly once, by whichever worker claims it. There is no
// implied barrier — pair with Barrier as needed.
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
	minSteal := MinStealLen(p)
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
