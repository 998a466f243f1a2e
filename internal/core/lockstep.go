package core

import (
	"errors"

	"spantree/internal/graph"
	"spantree/internal/obs"
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
// The fallback detection maps to lockstep as follows: if
// FallbackThreshold > 0 and at least that many processors idle for
// idlePatienceRounds consecutive rounds while the traversal is
// unfinished, the run aborts into the Shiloach-Vishkin completion — the
// same condition the concurrent version detects with sleeping
// processors.
//
// A StallBudget is rejected: the driver runs on the calling goroutine,
// so no waiting coordinator is there to watch its progress.
func LockstepForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	if opt.StallBudget > 0 {
		return nil, Stats{}, errors.New("core: LockstepForest does not support a StallBudget")
	}
	return oneShot(g, opt, runLockstep)
}

// idlePatienceRounds is the lockstep analogue of the concurrent
// version's "sleep for a duration before being counted": a processor
// must idle this many consecutive rounds before it counts toward the
// fallback threshold, filtering the transient idleness of startup and
// wind-down.
const idlePatienceRounds = 4

func runLockstep(g *graph.Graph, o Options) ([]graph.VID, Stats, error) {
	t, err := newTraversal(g, o, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	return t.runLockstep()
}

// runLockstep is the deterministic driver: the same stub step, join
// accounting and resolution as the concurrent run, with the traversal
// driven in round-robin lockstep on the calling goroutine.
func (t *traversal) runLockstep() ([]graph.VID, Stats, error) {
	p := t.o.NumProcs
	stats := Stats{VerticesPerProc: make([]int64, p), EdgesPerProc: make([]int64, p)}
	if t.n == 0 {
		return t.parent, stats, nil
	}
	stats.StubSize = t.stub()
	stats.LockstepRounds = t.lockstepDrive()
	t.joined()
	parent, err := t.finish(&stats)
	return parent, stats, err
}

// lockstepDrive runs the traversal to completion in round-robin
// lockstep and returns the number of rounds. Worker tids index the
// recorder, the cost model and the RNG streams exactly as the
// concurrent workers do.
func (t *traversal) lockstepDrive() int64 {
	o := t.o
	p := o.NumProcs
	rngs := make([]*xrand.Rand, p)
	workers := t.ows
	// The driver is single-goroutine, so the hot-path counters can batch
	// in locals for the whole run and flush once before finish.
	locals := make([]obs.Local, p)
	for tid := range rngs {
		rngs[tid] = xrand.New(o.Seed).Split(uint64(tid) + 1)
	}
	stealBuf := make([]int32, 0, 256)
	// out and the virtual drains mirror the concurrent hot path's
	// batching: out is the chunk-local child buffer (the driver is
	// single-goroutine, so one buffer serves every tid), and each tid
	// drains in virtual chunks of o.ChunkSize even though the round-robin
	// driver still pops one vertex per turn for determinism. The chunk is
	// cost-model-only here — remaining[tid] counts down the pops left in
	// the current virtual drain, and each boundary charges the amortized
	// lock pairs of one chunked dequeue plus one batch flush. Forest
	// output is therefore chunk-invariant by construction, while the
	// modeled T_M/T_C charges follow the chunk.
	out := make([]int32, 0, 256)
	remaining := make([]int, p)
	idleStreak := make([]int, p)
	seededRoots := 0
	var rounds int64

	// processOne runs the batched process step for one vertex: children
	// accumulate in out, are flushed with one PushBatch, and the progress
	// batch publishes immediately (the single-goroutine driver has no
	// concurrent readers to batch against).
	processOne := func(tid int, v graph.VID, probe *smpmodel.Probe, myQ *wsq.StealHalf) {
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
				probe := o.Model.Probe(tid)
				ow := workers[tid]
				myQ := t.queues[tid]
				if v, ok := myQ.Pop(); ok {
					// Charge the batched hot path's amortized costs: at each
					// virtual chunk boundary, the lock pairs of one chunked
					// dequeue plus one batch flush (the per-vertex offset load
					// is charged inside process).
					if remaining[tid] == 0 {
						probe.NonContig(4)
						// This pop plus what the drain would take.
						drained := min(myQ.Len()+1, o.ChunkSize)
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
			rounds++
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
				if v, ok := t.nextUncolored(o.Model.Probe(0)); ok {
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
		locals[tid].FlushTo(workers[tid])
	}
	return rounds
}
