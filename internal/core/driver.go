package core

// The drivers' shared steps. SpanningForest, LockstepForest and the
// pooled Workspace all run one team of NumProcs workers over the whole
// graph's compact graph.CSR32 mirror, and differ only in how they
// execute step 2, the work-stealing traversal: concurrent goroutines
// spawned per run, round-robin lockstep on the calling goroutine, or a
// parked team woken per run. Everything around it is one code path:
// construction (newTraversal), the stub step (stub), and the run's
// resolution (finish: stop outcome, stats derivation, root count and
// the SV fallback).

import (
	"fmt"

	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/par"
	"spantree/internal/spanseq"
	"spantree/internal/wsq"
	"spantree/internal/xrand"
)

// newTraversal builds the team for one run of g under o (withDefaults
// already applied). qcap, when positive, is the capacity of pooled work
// queues (the Workspace path); 0 sizes one-shot queues for the team's
// share of the graph.
func newTraversal(g *graph.Graph, o Options, qcap int) (*traversal, error) {
	cg, err := graph.CompactOf(g)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Modeled chaos runs charge injected perturbations into the same
	// model as the run itself (nil-safe on both sides, no-op in default
	// builds): stalls land as idle time on the stalled processor's T_C,
	// steal vetoes as a failed steal's fruitless poll.
	o.Chaos.AttachModel(o.Model)
	rec := o.Obs
	if rec == nil {
		rec = obs.New(o.NumProcs)
	}
	if o.Cancel == nil {
		o.Cancel = &fault.Flag{}
	}
	n := g.NumVertices()
	p := o.NumProcs
	t := &traversal{
		g:           g,
		cg:          cg,
		o:           o,
		n:           n,
		parent:      make([]graph.VID, n),
		queues:      make([]*wsq.StealHalf, p),
		minSteal:    par.MinStealLen(p),
		wake:        make(chan struct{}, p),
		parkTimeout: idleSleep,
		cancel:      o.Cancel,
		inj:         o.Chaos,
		rec:         rec,
		ows:         make([]*obs.Worker, p),
		seeds:       make([]graph.VID, 0, o.StubSteps+1),
	}
	if o.pendantTrim {
		if image, count := graph.PendantTrees(g); count > 0 {
			for v, p := range image {
				if p == graph.None {
					image[v] = unclaimed
				}
			}
			t.image, t.pendant = image, count
		}
	}
	t.resetParent()
	if o.Model != nil {
		t.span = make([]int64, n)
	}
	for tid := range t.ows {
		t.ows[tid] = rec.Worker(tid)
	}
	initCap := min(n/p+16, 1<<16)
	for i := range t.queues {
		if qcap > 0 {
			t.queues[i] = wsq.NewStealHalf(qcap)
			continue
		}
		q := wsq.NewStealHalf(initCap)
		// Queue high-water accounting costs a check on every push, so it
		// runs only when the caller asked to observe the run.
		q.TrackHighWater(o.Obs != nil)
		t.queues[i] = q
	}
	// The stuck-run watchdog. One-shot drivers arm it around their
	// traversal step and close it when the run ends; a Workspace keeps
	// it parked for its lifetime and rearms it per Run.
	if o.StallBudget > 0 {
		t.wd = fault.NewWatchdog(p)
	}
	return t, nil
}

// run executes both steps of the algorithm with concurrent workers
// spawned for this run.
func (t *traversal) run() ([]graph.VID, Stats, error) {
	p := t.o.NumProcs
	stats := Stats{VerticesPerProc: make([]int64, p), EdgesPerProc: make([]int64, p)}
	if t.n == 0 {
		return t.parent, stats, nil
	}
	stats.StubSize = t.stub()
	// A trip before the traversal (e.g. an already-expired deadline)
	// spawns no workers. The stuck-run watchdog is armed only around the
	// traversal: the stub walk runs on the calling goroutine and never
	// beats.
	if !t.cancel.Tripped() {
		if t.wd != nil {
			t.wd.Arm(t.cancel, t.o.StallBudget)
			defer t.wd.Disarm()
		}
		// The team joins through one barrier episode (the coordinator is
		// the extra participant), which gives the work-stealing path
		// per-worker barrier_waits just like the SV family, and the
		// paper's B = 2 with the stub step's barrier.
		bar := par.NewBarrier(p + 1)
		bar.Observe(t.rec)
		for tid := 0; tid < p; tid++ {
			go func(tid int) {
				// Every worker reaches the join barrier whatever happens in
				// its body: a panic is isolated here (recorded, the run's flag
				// tripped so the teammates drain at their next poll) and the
				// coordinator below never waits on a dead goroutine.
				defer bar.Wait(tid)
				defer func() {
					if r := recover(); r != nil {
						t.recoverWorker(tid, r)
					}
				}()
				t.worker(tid)
			}(tid)
		}
		bar.Wait(p)
		t.o.Model.AddBarriers(1)
	}
	parent, err := t.finish(&stats)
	return parent, stats, err
}

// resetParent sets the parent array to its start-of-run state: the
// pre-claimed pendant trees of the image, if there are any, and the
// unclaimed sentinel everywhere else. The progress count starts at the
// number of pre-claimed vertices.
func (t *traversal) resetParent() {
	if t.image != nil {
		copy(t.parent, t.image)
	} else {
		for i := range t.parent {
			t.parent[i] = unclaimed
		}
	}
	t.visited.Store(int64(t.pendant))
}

// drawStart draws the run's first root, the stub walk's start or the
// NoStub seed, from r. A draw that lands on a pre-claimed pendant vertex
// is redrawn from the same stream: processing a pendant vertex would
// claim its 2-core neighbour under it and close a cycle with its
// pre-claimed edge. Without pendant trees every vertex is unclaimed at
// this point, so the first draw stands and the stream is consumed
// exactly as in an untrimmed run.
func (t *traversal) drawStart(r *xrand.Rand) graph.VID {
	for {
		if v := graph.VID(r.Intn(t.n)); t.parent[v] == unclaimed {
			return v
		}
	}
}

// stub runs step 1 for every driver and returns the stub's size: the
// stub spanning tree, generated by a single processor (charged to
// processor 0) into the preallocated seed buffer and distributed
// round-robin over the queues, then the barrier that separates it from
// the traversal. A pooled run has no cost model, so its walk charges a
// nil probe.
func (t *traversal) stub() int {
	probe := t.o.Model.Probe(0)
	t.stubRand.Reseed(t.o.Seed)
	t.seeds = t.seeds[:0]
	if t.o.NoStub {
		s := t.drawStart(&t.stubRand)
		t.claimSeq(s, graph.None)
		t.seeds = append(t.seeds, s)
	} else {
		t.seeds = stubSpanningTree(t, &t.stubRand, probe, t.seeds)
	}
	p := t.o.NumProcs
	for i, s := range t.seeds {
		t.queues[i%p].Push(int32(s))
		probe.NonContig(1)
		t.rec.Trace(0, obs.EvSeed, int64(s), int64(i%p))
	}
	t.o.Model.AddBarriers(1)
	t.rec.AddBarrierEpisodes(1)
	t.rec.Trace(-1, obs.EvBarrier, 1, 0)
	return len(t.seeds)
}

// finish resolves a run after its traversal step: a tripped flag takes
// the stop path; otherwise the span goes to the cost model, Stats is
// derived, and the root count is settled.
func (t *traversal) finish(stats *Stats) ([]graph.VID, error) {
	if t.cancel.Tripped() {
		return t.stop(stats)
	}
	t.o.Model.AddSpanNC(t.spanMax())
	t.finishStats(stats)
	if err := t.settle(stats); err != nil {
		return nil, err
	}
	return t.parent, nil
}

// stop resolves a run whose stop flag tripped. Context stops return the
// typed error (fault.ErrCanceled / fault.ErrDeadline) with the partial
// Stats; an isolated worker panic degrades to the sequential BFS so the
// caller still receives a valid forest, with the PanicError surfaced
// through Stats.Panic. The partially-written parallel parent array is
// abandoned, never repaired in place.
func (t *traversal) stop(stats *Stats) ([]graph.VID, error) {
	if t.cancel.Cause() == fault.CauseStalled {
		t.ows[0].Incr(obs.StallTrips)
	}
	t.finishStats(stats)
	if t.cancel.Cause() == fault.CausePanicked {
		stats.Panic = t.cancel.Panic()
		stats.DegradedToSeq = true
		parent := spanseq.BFS(t.g, t.o.Model.Probe(0))
		stats.Roots = countRoots(parent)
		return parent, nil
	}
	return nil, t.cancel.Err()
}

// settle records the forest's root count and, when the traversal
// aborted, completes it. The stub walk (or the NoStub seed) claimed
// exactly one root before the traversal, every quiescence seed
// (Stats.CursorRoots, already derived) claimed one more, and the
// pre-claimed pendant trees hang under 2-core vertices and add none,
// so the count needs no scan of the forest. An aborted traversal is
// finished by Shiloach-Vishkin over the contracted graph, which counts
// its own roots. The fallback allocates; leaving a pooled run's zero-alloc
// steady state is the right trade on an input that defeated the
// traversal.
func (t *traversal) settle(stats *Stats) error {
	stats.Roots = 1 + int(stats.CursorRoots)
	if !t.abort.Load() {
		return nil
	}
	stats.FallbackTriggered = true
	svStats, roots, err := t.fallback()
	stats.SVStats, stats.Roots = svStats, roots
	return err
}

// countRoots scans a forest for its roots. Only the sequential
// degradation path needs it: its forest did not come from the team.
func countRoots(parent []graph.VID) int {
	roots := 0
	for _, p := range parent {
		if p == graph.None {
			roots++
		}
	}
	return roots
}

// finishStats records the queues' high-water marks into the recorder
// and derives the public Stats values from its totals and the cached
// per-worker handles — the Stats struct is a view over the unified
// observability layer, read without a Snapshot, whose slice-of-workers
// view allocates on every call.
func (t *traversal) finishStats(stats *Stats) {
	for i, q := range t.queues {
		t.ows[i].Max(obs.QueueHighWater, int64(q.HighWater()))
	}
	stats.Steals = t.rec.Total(obs.StealSuccesses)
	stats.StealAttempts = t.rec.Total(obs.StealAttempts)
	stats.StolenVertices = t.rec.Total(obs.StolenVertices)
	stats.FailedClaims = t.rec.Total(obs.FailedClaims)
	stats.CursorRoots = t.rec.Total(obs.SeededComponents)
	stats.Pendant = t.pendant
	for i, ow := range t.ows {
		stats.VerticesPerProc[i] = ow.Get(obs.VerticesClaimed)
		stats.EdgesPerProc[i] = ow.Get(obs.EdgesScanned)
	}
}

// rearm resets every run-scoped field of the traversal for the next
// pooled Run: the parent array and progress count (resetParent),
// cursors, the work queues, leftover wake tokens, and the per-run seed.
// The recorder reset is the caller's.
func (t *traversal) rearm(seed uint64) {
	t.resetParent()
	t.o.Seed = seed
	t.cursor.Store(0)
	t.sleepers.Store(0)
	t.abort.Store(false)
	for _, q := range t.queues {
		q.Reset()
	}
	for len(t.wake) > 0 {
		<-t.wake
	}
}
