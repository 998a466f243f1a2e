package core

import (
	"fmt"

	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/sched"
	"spantree/internal/smpmodel"
	"spantree/internal/wsq"
	"spantree/internal/xrand"
)

// LockstepForest runs the same two-step algorithm as SpanningForest, but
// drives the p virtual processors deterministically in round-robin
// lockstep on the calling goroutine instead of concurrently: in each
// round every processor either processes one vertex from its queue,
// steals half of a victim's queue, or idles. All randomness comes from
// opt.Seed, so two runs with equal inputs produce identical forests,
// statistics and cost-model counters.
//
// This mode exists for the experiment harness: the reproduction's
// figures are computed from Helman-JáJá cost counters, and lockstep
// execution makes those counters exactly reproducible, whereas the
// concurrent execution's work distribution depends on the Go scheduler.
// The concurrent SpanningForest remains the production entry point and
// the one exercised for correctness under real races.
//
// Sharded runs (Options.Shards > 1) drive their teams shard by shard,
// wave by wave — deterministic by construction, since the teams'
// vertex ranges are disjoint and the stitch pass is sequential.
//
// The fallback detection maps to lockstep as follows: if
// FallbackThreshold > 0 and at least that many processors idle for
// idlePatienceRounds consecutive rounds while the traversal is
// unfinished, the run aborts into the Shiloach-Vishkin completion — the
// same condition the concurrent version detects with sleeping
// processors.
func LockstepForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("core: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	if opt.Obs != nil && opt.Obs.NumWorkers() < opt.NumProcs {
		return nil, Stats{}, fmt.Errorf("core: Obs has %d worker slots, need >= %d",
			opt.Obs.NumWorkers(), opt.NumProcs)
	}
	if opt.Shards > 1 && opt.FallbackThreshold > 0 {
		return nil, Stats{}, errShardsFallback
	}
	o := opt.withDefaults()
	if o.Deg2Eliminate {
		red := graph.EliminateDegree2(g)
		probe0 := o.Model.Probe(0)
		probe0.NonContig(int64(g.NumVertices()))
		probe0.Contig(int64(len(g.Adj)))
		inner := o
		inner.Deg2Eliminate = false
		redParent, stats, err := LockstepForest(red.Reduced, inner)
		if err != nil {
			return nil, stats, err
		}
		stats.Deg2Eliminated = red.NumEliminated()
		parent, err := red.ExpandForest(redParent)
		if err != nil {
			return nil, stats, fmt.Errorf("core: expanding degree-2 reduction: %w", err)
		}
		probe0.NonContig(int64(red.NumEliminated()))
		return parent, stats, nil
	}
	return runLockstep(g, o)
}

// idlePatienceRounds is the lockstep analogue of the concurrent
// version's "sleep for a duration before being counted": a processor
// must idle this many consecutive rounds before it counts toward the
// fallback threshold, filtering the transient idleness of startup and
// wind-down.
const idlePatienceRounds = 4

func runLockstep(g *graph.Graph, o Options) ([]graph.VID, Stats, error) {
	e, err := newEngine(g, o, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	defer e.wd.Close() // one-shot engine: the run owns the watchdog
	return e.runLockstep()
}

// runLockstep is the engine's deterministic driver: the same stub and
// stitch steps as run(), with every wave's teams driven sequentially in
// round-robin lockstep on the calling goroutine.
func (e *engine) runLockstep() ([]graph.VID, Stats, error) {
	o := e.o
	var stats Stats
	stats.VerticesPerProc = make([]int64, o.NumProcs)
	stats.EdgesPerProc = make([]int64, o.NumProcs)
	if len(e.parent) == 0 {
		return e.parent, stats, nil
	}

	// Step 1: stub spanning trees (identical to the concurrent engine).
	var rootRand xrand.Rand
	probe0 := o.Model.Probe(0)
	for si, t := range e.ts {
		e.stubRandInto(&rootRand, o.Seed, si)
		var seeds []graph.VID
		if o.NoStub {
			s := t.lo + graph.VID(rootRand.Intn(t.n))
			t.claimSeq(s, graph.None)
			seeds = []graph.VID{s}
		} else {
			seeds = stubSpanningTree(t, &rootRand, probe0, nil)
		}
		stats.StubSize += len(seeds)
		for i, s := range seeds {
			t.queues[i%t.o.NumProcs].Push(int32(s))
			probe0.NonContig(1)
			e.rec.Trace(0, obs.EvSeed, int64(s), int64(t.tidBase+i%t.o.NumProcs))
		}
	}
	o.Model.AddBarriers(1)
	e.rec.AddBarrierEpisodes(1)
	e.rec.Trace(-1, obs.EvBarrier, 1, 0)

	// Step 2: round-robin lockstep traversal, shard by shard inside each
	// wave (sequential either way on the driving goroutine; the barrier
	// accounting still groups shards into waves, mirroring the
	// concurrent engine's schedule). The watchdog arms around the
	// traversal exactly like the concurrent engine: the driver beats per
	// processed turn, so a wedged drive (a blocking test hook, a stuck
	// syscall) trips the same typed ErrStalled.
	if e.wd != nil {
		e.wd.Arm(e.cancel, e.o.StallBudget)
		defer e.wd.Disarm()
	}
	for _, wave := range e.waves {
		for _, si := range wave {
			lockstepDrive(e.ts[si], &stats)
			if e.cancel.Tripped() {
				break
			}
		}
		o.Model.AddBarriers(1)
		e.rec.AddBarrierEpisodes(1)
		e.rec.Trace(-1, obs.EvBarrier, 2, 0)
		if e.cancel.Tripped() {
			break
		}
	}
	if e.cancel.Tripped() {
		return e.stopOutcome(&stats)
	}
	e.recordSpan()
	for _, t := range e.ts {
		t.normalizeRoots()
	}
	if e.part != nil {
		e.stitchShards(probe0, e.rec.Worker(0))
	}
	e.finishStats(&stats)
	if e.ts[0].abort.Load() {
		stats.FallbackTriggered = true
		svStats, err := e.ts[0].fallback()
		stats.SVStats = svStats
		if err != nil {
			return nil, stats, err
		}
	}
	return e.parent, stats, nil
}

// lockstepDrive runs one team's traversal to completion in round-robin
// lockstep. Local worker tids map onto the global processor slots
// tidBase+tid for the recorder, the cost model, and the RNG streams —
// exactly the mapping the concurrent workers use, so a shards=1 drive
// is byte-identical to the pre-engine driver.
func lockstepDrive(t *traversal, stats *Stats) {
	o := t.o
	p := o.NumProcs
	rngs := make([]*xrand.Rand, p)
	workers := make([]*obs.Worker, p)
	// The driver is single-goroutine, so the hot-path counters can batch
	// in locals for the whole run and flush once before finishStats.
	locals := make([]obs.Local, p)
	for tid := range rngs {
		rngs[tid] = xrand.New(o.Seed).Split(uint64(t.tidBase+tid) + 1)
		workers[tid] = t.rec.Worker(t.tidBase + tid)
	}
	stealBuf := make([]int32, 0, 256)
	// out and the per-tid chunk controllers mirror the concurrent hot
	// path's batching: out is the chunk-local child buffer (the driver is
	// single-goroutine, so one buffer serves every tid), and each tid runs
	// the same sched.Controller as a concurrent worker even though the
	// round-robin driver still pops one vertex per turn for determinism.
	// The chunk is cost-model-only here — remaining[tid] counts down the
	// pops left in the current virtual drain, and each boundary charges
	// the amortized lock pairs of one chunked dequeue plus one batch
	// flush and lets the controller resize from the queue depth and the
	// failed steals charged against that tid. Forest output is therefore
	// chunk-invariant by construction, while the modeled T_M/T_C charges
	// track the adaptive schedule.
	out := make([]int32, 0, 256)
	ctrls := make([]sched.Controller, p)
	remaining := make([]int, p)
	for tid := range ctrls {
		ctrls[tid] = sched.NewController(o.ChunkPolicy, o.ChunkSize)
	}
	idleStreak := make([]int, p)
	seededRoots := 0

	// processOne runs the batched process step for one vertex: children
	// accumulate in out, are flushed with one PushBatch, and the progress
	// batch publishes immediately (the single-goroutine driver has no
	// concurrent readers to batch against).
	processOne := func(tid int, v graph.VID, probe *smpmodel.Probe, myQ *wsq.StealHalf) {
		t.wd.Beat(t.tidBase + tid)
		out = out[:0]
		var pend int64
		t.process(tid, v, probe, &out, &locals[tid], &pend)
		if len(out) > 0 {
			myQ.PushBatch(out)
			probe.NonContig(int64(len(out))) // copied child slots
		}
		t.visited.Add(pend)
	}

	// The round loop runs on the calling goroutine, so panic isolation is
	// one recover around the whole loop; curTid attributes the panic to
	// the virtual processor whose turn was executing. The cancel poll is
	// one atomic load per turn — the lockstep analogue of the concurrent
	// worker's chunk-boundary check.
	curTid := 0
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.recoverWorker(curTid, r)
			}
		}()
		for t.visited.Load() < int64(t.n) && !t.abort.Load() && !t.cancel.Tripped() {
			idleThisRound := 0
			patientIdlers := 0
			for tid := 0; tid < p && t.visited.Load() < int64(t.n) && !t.cancel.Tripped(); tid++ {
				curTid = tid
				if h := o.testHook; h != nil {
					h(tid)
				}
				probe := o.Model.Probe(t.tidBase + tid)
				ow := workers[tid]
				myQ := t.queues[tid]
				if v, ok := myQ.Pop(); ok {
					// Charge the batched hot path's amortized costs: at each
					// virtual chunk boundary, the lock pairs of one chunked
					// dequeue plus one batch flush (the per-vertex offset load
					// is charged inside process). The controller resizes the
					// next virtual drain at the boundary, so the modeled
					// charges follow the adaptive schedule (single-goroutine,
					// hence still deterministic).
					if remaining[tid] == 0 {
						probe.NonContig(4)
						ctrl := &ctrls[tid]
						ctrl.Adapt(myQ.Len(), t.fail.Load(tid), &locals[tid])
						drained := myQ.Len() + 1 // this pop plus what the drain would take
						if drained > ctrl.Chunk() {
							drained = ctrl.Chunk()
						}
						remaining[tid] = drained
						locals[tid].Incr(obs.ChunkDrains)
						locals[tid].Add(obs.DrainedVertices, int64(drained))
						locals[tid].Incr(obs.DrainHistBucket(drained))
					}
					remaining[tid]--
					processOne(tid, graph.VID(v), probe, myQ)
					idleStreak[tid] = 0
					continue
				}
				if idleStreak[tid] == 0 {
					ow.Incr(obs.IdleTransitions)
					ow.Trace(obs.EvIdle, 0, 0)
					// Busy-to-idle ends the current virtual drain, mirroring the
					// concurrent worker's mandatory flush on the same transition.
					remaining[tid] = 0
				}
				if !o.NoSteal && p > 1 {
					ow.Incr(obs.StealAttempts)
					start := rngs[tid].Intn(p)
					stole := false
					for i := 0; i < p; i++ {
						victim := (start + i) % p
						if victim == tid {
							continue
						}
						if t.queues[victim].Len() < t.minSteal {
							continue
						}
						stealBuf = t.queues[victim].Steal(stealBuf[:0])
						if len(stealBuf) == 0 {
							continue
						}
						ow.Incr(obs.StealSuccesses)
						ow.Add(obs.StolenVertices, int64(len(stealBuf)))
						ow.Trace(obs.EvSteal, int64(victim), int64(len(stealBuf)))
						probe.NonContig(int64(len(stealBuf)) + 2)
						// Process the first stolen vertex in this same turn:
						// merely re-queuing the loot would let the next
						// processor steal it back, livelocking a one-element
						// frontier under round-robin scheduling.
						myQ.PushBatch(stealBuf[1:])
						processOne(tid, graph.VID(stealBuf[0]), probe, myQ)
						stole = true
						break
					}
					if stole {
						idleStreak[tid] = 0
						continue
					}
					ow.Incr(obs.StealFailures)
					// Per-victim charge, as in the concurrent scan: only the
					// workers still hoarding sub-threshold queues shrink.
					for i := 0; i < p; i++ {
						victim := (start + i) % p
						if victim == tid {
							continue
						}
						if l := t.queues[victim].Len(); l > 0 && l < t.minSteal {
							t.fail.Record(victim)
						}
					}
					probe.NonContig(1) // fruitless poll before sleeping
				}
				idleThisRound++
				idleStreak[tid]++
				if idleStreak[tid] >= idlePatienceRounds {
					patientIdlers++
				}
			}
			if t.visited.Load() >= int64(t.n) {
				break
			}
			stats.LockstepRounds++
			if th := o.FallbackThreshold; th > 0 && patientIdlers >= th {
				t.abort.Store(true)
				workers[0].Incr(obs.FallbackTriggers)
				workers[0].Trace(obs.EvFallback, int64(patientIdlers), 0)
				break
			}
			if idleThisRound == p {
				// Quiescence: every queue is empty and nobody processed a
				// vertex this round, so the uncolored set is a union of whole
				// components; seed the next one on a rotating processor.
				if v, ok := t.nextUncolored(o.Model.Probe(t.tidBase)); ok {
					tid := seededRoots % p
					t.claimSeq(v, graph.None)
					seededRoots++
					workers[tid].Incr(obs.SeededComponents)
					workers[tid].Trace(obs.EvComponentSeed, int64(v), 0)
					t.queues[tid].Push(int32(v))
					for i := range idleStreak {
						idleStreak[i] = 0
					}
				}
				// Cursor exhausted means every vertex is colored; the loop
				// condition ends the traversal.
			}
		}
	}()
	for tid := range locals {
		workers[tid].Max(obs.ChunkHighWater, int64(ctrls[tid].HighWater()))
		locals[tid].FlushTo(workers[tid])
	}
}
