package core

// The engine layer: one execution driver behind SpanningForest,
// LockstepForest and the pooled Workspace. An engine owns the shared
// parent array and schedules one traversal (team) per shard; the
// classic single-team run is literally the shards=1 special case of the
// same code path — one shard covering the whole graph through its
// compact graph.CSR32 mirror, one wave, one team of NumProcs workers.
//
// With Shards > 1 the graph is partitioned into contiguous vertex
// ranges (graph.PartitionCSR), each backed by a compact intra-shard
// CSR32 view. NumProcs stays the TOTAL worker budget: when S <= p every
// shard gets a team of ~p/S workers and all teams run concurrently in
// one wave; when S > p, single-worker teams run in ceil(S/p) sequential
// waves of at most p shards. Either way a team's local worker tid maps
// onto the global processor slot tidBase+tid, so one shared recorder
// and one shared cost model serve every team with no slot aliasing
// inside a wave (slot reuse across waves is sequential, with the wave
// join barrier providing the happens-before edge — the model's reading
// is p processors time-slicing over the shards).
//
// Shard teams never contend: their compact views hold only intra-shard
// edges, so claims land in disjoint parent ranges. The edges that cross
// shards are the partition's boundary list, and after every team has
// joined and normalized its roots, the stitch pass — the spanuf
// CAS-hook sweep over the contracted shard-component graph — elects one
// boundary edge per component pair and splices the shard forests
// together with the fallback's reroot-and-point idiom.

import (
	"errors"
	"fmt"

	"spantree/internal/barrier"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/sched"
	"spantree/internal/smpmodel"
	"spantree/internal/spanseq"
	"spantree/internal/spanuf"
	"spantree/internal/wsq"
	"spantree/internal/xrand"
)

// errShardsFallback rejects the one option combination the stitch pass
// cannot serve: the SV fallback abandons the traversal mid-forest,
// while stitching requires every shard forest to be complete.
var errShardsFallback = errors.New("core: Shards > 1 requires FallbackThreshold == 0 (the stitch pass needs completed shard forests)")

// stubSalt offsets the per-shard stub-walk streams far above the worker
// streams (splits 1..p of the same seed), so no shard's walk shares an
// RNG stream with any worker's victim selection.
const stubSalt = uint64(1) << 32

// engine drives one run: per-shard stub walks, the wave schedule of
// teams, the stitch pass, and stats derivation.
type engine struct {
	g      *graph.Graph
	o      Options // engine-level options (global NumProcs, defaults applied)
	parent []graph.VID
	span   []int64
	part   *graph.Partition // nil for the single-team case
	ts     []*traversal     // one per shard; len 1 when part == nil
	waves  [][]int          // shard indices per concurrent wave
	rec    *obs.Recorder
	cancel *fault.Flag
	// wd is the stuck-run watchdog (nil unless Options.StallBudget > 0).
	// One-shot drivers arm it around their traversal step and close it
	// when the run ends; a Workspace keeps it parked for its lifetime
	// and rearms it per Run.
	wd     *fault.Watchdog
	stitch *spanuf.StitchScratch
}

// newEngine builds the engine for one run of g under o (withDefaults
// already applied). mk, when non-nil, supplies pooled work queues in
// shard-major tid order (the Workspace path).
func newEngine(g *graph.Graph, o Options, mk func(n int) *wsq.StealHalf) (*engine, error) {
	if o.Shards > 1 && o.FallbackThreshold > 0 {
		return nil, errShardsFallback
	}
	// Modeled chaos runs charge injected perturbations into the same
	// model as the run itself (nil-safe on both sides, no-op in default
	// builds): stalls land as idle time on the stalled processor's T_C,
	// steal vetoes as a failed steal's fruitless poll.
	o.Chaos.AttachModel(o.Model)
	n := g.NumVertices()
	var (
		part   *graph.Partition
		shards []graph.Shard
	)
	if o.Shards <= 1 || n <= 1 {
		// The single-team case: one shard covering the whole graph through
		// its compact mirror, run through the very same engine loop as a
		// one-shard partition of one wave.
		cg, err := graph.CompactOf(g)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		shards = []graph.Shard{{Lo: 0, Hi: graph.VID(n), CSR: cg}}
	} else {
		var err error
		if part, err = graph.PartitionCSR(g, o.Shards, graph.CutPolicyFor(g.Name)); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		shards = part.Shards
	}
	rec := o.Obs
	if rec == nil {
		rec = obs.New(o.NumProcs)
	}
	cancel := o.Cancel
	if cancel == nil {
		cancel = &fault.Flag{}
	}
	parent := make([]graph.VID, n)
	for i := range parent {
		parent[i] = graph.None
	}
	var span []int64
	if o.Model != nil {
		span = make([]int64, n)
	}
	e := &engine{
		g: g, o: o, parent: parent, span: span, part: part,
		rec: rec, cancel: cancel,
	}
	if part != nil {
		e.stitch = spanuf.NewStitchScratch(n)
	}
	team, base, waves := shardTeams(len(shards), o.NumProcs)
	e.waves = waves
	e.ts = make([]*traversal, len(shards))
	for s := range e.ts {
		t := e.newShardTraversal(&shards[s], team[s], base[s])
		t.initQueues(mk)
		e.ts[s] = t
	}
	if part == nil {
		e.ts[0].g = g // the SV fallback grafts over the whole graph
	}
	e.attachWatchdog()
	return e, nil
}

// attachWatchdog builds the stuck-run watchdog when a stall budget is
// configured and hands every team a reference. Slots are the global
// processor slots, so wave-sequential teams share them exactly like
// they share recorder slots.
func (e *engine) attachWatchdog() {
	if e.o.StallBudget <= 0 {
		return
	}
	e.wd = fault.NewWatchdog(e.o.NumProcs)
	for _, t := range e.ts {
		t.wd = e.wd
	}
}

// shardTeams splits the global worker budget p over S shards: with
// S <= p, one wave of teams sized p/S (the first p%S teams one larger);
// with S > p, single-worker teams in sequential waves of at most p
// shards. tidBase is each team's first global processor slot; slots
// inside a wave never overlap and every slot is < p.
func shardTeams(S, p int) (team, base []int, waves [][]int) {
	team = make([]int, S)
	base = make([]int, S)
	if S <= p {
		q, r := p/S, p%S
		next := 0
		wave := make([]int, S)
		for s := 0; s < S; s++ {
			team[s] = q
			if s < r {
				team[s]++
			}
			base[s] = next
			next += team[s]
			wave[s] = s
		}
		return team, base, [][]int{wave}
	}
	for s := 0; s < S; s += p {
		hi := min(s+p, S)
		wave := make([]int, 0, hi-s)
		for i := s; i < hi; i++ {
			team[i] = 1
			base[i] = i - s
			wave = append(wave, i)
		}
		waves = append(waves, wave)
	}
	return team, base, waves
}

// newShardTraversal builds the team traversal for one shard — the
// whole graph, for a single team: the shard's compact view as its
// graph (local offsets, global adjacency ids), the shared parent/span
// arrays, and the team's slice [tidBase, tidBase+team) of the global
// processor slots.
func (e *engine) newShardTraversal(sh *graph.Shard, team, base int) *traversal {
	ns := sh.NumVertices()
	so := e.o
	so.NumProcs = team
	so.Cancel = e.cancel
	return &traversal{
		cg:       sh.CSR,
		o:        so,
		n:        ns,
		lo:       sh.Lo,
		tidBase:  base,
		parent:   e.parent,
		span:     e.span,
		queues:   make([]*wsq.StealHalf, team),
		minSteal: sched.MinStealLen(team),
		fail:     sched.NewFailSignal(team),
		rec:      e.rec,
		cancel:   e.cancel,
		inj:      e.o.Chaos,
	}
}

// stubRandInto rearms r with shard si's stub-walk stream: the plain
// seed stream for the single-team case (byte-identical to the
// pre-engine driver), a salted split per shard otherwise.
func (e *engine) stubRandInto(r *xrand.Rand, seed uint64, si int) {
	if e.part == nil {
		r.Reseed(seed)
		return
	}
	var base xrand.Rand
	base.Reseed(seed)
	r.ReseedSplit(&base, stubSalt+uint64(si))
}

// run executes both steps of the algorithm: stub walks, the wave
// schedule of work-stealing teams, and (for sharded runs) the stitch.
func (e *engine) run() ([]graph.VID, Stats, error) {
	o := e.o
	var stats Stats
	stats.VerticesPerProc = make([]int64, o.NumProcs)
	stats.EdgesPerProc = make([]int64, o.NumProcs)
	if len(e.parent) == 0 {
		return e.parent, stats, nil
	}

	// Step 1: stub spanning trees, one walk per shard, generated by a
	// single processor (charged to processor 0) and distributed
	// round-robin over the owning team's queues.
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
	// One barrier separates the stub step from the traversal step; the
	// traversal itself needs only the per-wave joins (the paper's B = 2
	// for a single wave).
	o.Model.AddBarriers(1)
	e.rec.AddBarrierEpisodes(1)
	e.rec.Trace(-1, obs.EvBarrier, 1, 0)
	if e.cancel.Tripped() {
		// Canceled before the traversal even started (e.g. an already-
		// expired deadline): don't spin up the teams.
		return e.stopOutcome(&stats)
	}

	// Step 2: work-stealing graph traversal, one team per shard. The
	// teams of a wave run concurrently on disjoint global processor
	// slots and join through one barrier episode (the coordinator is the
	// extra participant), which gives the work-stealing path per-worker
	// barrier_waits just like the SV family. The stuck-run watchdog is
	// armed only around this step — the stub walk above runs on the
	// calling goroutine and never beats.
	if e.wd != nil {
		e.wd.Arm(e.cancel, e.o.StallBudget)
		defer e.wd.Disarm()
	}
	for _, wave := range e.waves {
		total := 0
		for _, si := range wave {
			total += e.ts[si].o.NumProcs
		}
		bar := barrier.NewSense(total + 1)
		bar.Observe(e.rec)
		slot := 0
		for _, si := range wave {
			t := e.ts[si]
			for tid := 0; tid < t.o.NumProcs; tid++ {
				go func(t *traversal, tid, slot int) {
					// Every worker reaches the join barrier whatever happens in
					// its body: a panic is isolated here (recorded, the run's flag
					// tripped so the teammates drain at their next poll) and the
					// coordinator below never waits on a dead goroutine.
					defer bar.Wait(slot)
					defer func() {
						if r := recover(); r != nil {
							t.recoverWorker(tid, r)
						}
					}()
					t.worker(tid)
				}(t, tid, slot)
				slot++
			}
		}
		bar.Wait(total) // the coordinator is the extra participant
		o.Model.AddBarriers(1)
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
		// Pathological case detected (single-team only: Shards > 1
		// rejects FallbackThreshold): finish with Shiloach-Vishkin over
		// the contracted graph.
		stats.FallbackTriggered = true
		svStats, err := e.ts[0].fallback()
		stats.SVStats = svStats
		if err != nil {
			return nil, stats, err
		}
	}
	return e.parent, stats, nil
}

// stitchShards joins the per-shard forests through the boundary edges:
// the spanuf CAS-hook sweep over the contracted shard-component graph,
// run by the coordinator after the teams joined and roots were
// normalized. Each winning hook is applied on the spot with the
// fallback's reroot-and-point idiom, keeping parent[] and the
// union-find merging in lockstep. The obs counters land on slot 0 (the
// coordinator's), sequenced after the workers by the wave joins.
func (e *engine) stitchShards(probe *smpmodel.Probe, ow *obs.Worker) {
	attach := func(u, v graph.VID) {
		rerootAt(e.parent, u)
		e.parent[u] = v
		probe.NonContig(2) // the splice's pointer writes on parent[]
	}
	var hooks int
	if e.rec.Total(obs.SeededComponents) == 0 {
		// No team ever reseeded: every shard forest is a single tree, so
		// a vertex's component label is its shard index and the stitch
		// needs neither parent walks nor the O(n) label rearm. This is
		// the common case for well-connected families (torus, mesh,
		// random) and the one that makes sharding pay: the label walks
		// are the stitch's only super-boundary cost. A stale external
		// recorder can only push us onto the general path — never the
		// other way — so the dispatch is conservative.
		hooks = e.stitch.StitchRooted(len(e.ts), e.shardIndex, e.part.Boundary, probe, attach)
	} else {
		hooks = e.stitch.Stitch(e.parent, e.part.Boundary, probe, attach)
	}
	ow.Add(obs.ShardRuns, int64(len(e.ts)))
	ow.Add(obs.BoundaryEdges, int64(len(e.part.Boundary)))
	ow.Add(obs.StitchHooks, int64(hooks))
	ow.Trace(obs.EvStitch, int64(len(e.part.Boundary)), int64(hooks))
}

// shardIndex maps a vertex to the index of the shard whose contiguous
// range holds it, by binary search over the partition's cut points.
func (e *engine) shardIndex(v graph.VID) int32 {
	sh := e.part.Shards
	lo, hi := 0, len(sh)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if v >= sh[mid].Lo {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// recordSpan folds the per-shard dependency spans into the cost model:
// teams of one wave run concurrently (the wave's span is the max over
// its shards), sequential waves add.
func (e *engine) recordSpan() {
	if e.span == nil {
		return
	}
	for _, wave := range e.waves {
		var max int64
		for _, si := range wave {
			if s := e.ts[si].spanMax(); s > max {
				max = s
			}
		}
		e.o.Model.AddSpanNC(max)
	}
}

// stopOutcome resolves a run whose stop flag tripped. Context stops
// return the typed error (fault.ErrCanceled / fault.ErrDeadline) with
// the partial Stats; an isolated worker panic degrades to the
// sequential BFS so the caller still receives a valid forest, with the
// PanicError surfaced through Stats.Panic. The partially-written
// parallel parent array is abandoned, never repaired in place.
func (e *engine) stopOutcome(stats *Stats) ([]graph.VID, Stats, error) {
	if e.cancel.Cause() == fault.CauseStalled {
		e.rec.Worker(0).Incr(obs.StallTrips)
	}
	e.finishStats(stats)
	if e.cancel.Cause() == fault.CausePanicked {
		stats.Panic = e.cancel.Panic()
		stats.DegradedToSeq = true
		return spanseq.BFS(e.g, e.o.Model.Probe(0)), *stats, nil
	}
	return nil, *stats, e.cancel.Err()
}

// finishStats records the queues' high-water marks into the recorder
// and derives the public Stats values from the recorder's snapshot —
// the Stats struct is a view over the unified observability layer.
func (e *engine) finishStats(stats *Stats) {
	for _, t := range e.ts {
		for i, q := range t.queues {
			e.rec.Worker(t.tidBase+i).Max(obs.QueueHighWater, int64(q.HighWater()))
		}
	}
	snap := e.rec.Snapshot()
	stats.Steals = snap.Totals.StealSuccesses
	stats.StealAttempts = snap.Totals.StealAttempts
	stats.ChunkGrow = snap.Totals.ChunkGrow
	stats.ChunkShrink = snap.Totals.ChunkShrink
	stats.StolenVertices = snap.Totals.StolenVertices
	stats.FailedClaims = snap.Totals.FailedClaims
	stats.CursorRoots = snap.Totals.SeededComponents
	for i := 0; i < e.o.NumProcs && i < len(snap.Workers); i++ {
		stats.VerticesPerProc[i] = snap.Workers[i].VerticesClaimed
		stats.EdgesPerProc[i] = snap.Workers[i].EdgesScanned
	}
}

// finishStatsPooled is finishStats for pooled runs: the same
// derivation, but through Recorder.Total and cached per-slot handles
// instead of a Snapshot, whose slice-of-workers view allocates on every
// call.
func (e *engine) finishStatsPooled(stats *Stats, slotOW []*obs.Worker) {
	for _, t := range e.ts {
		for i, q := range t.queues {
			slotOW[t.tidBase+i].Max(obs.QueueHighWater, int64(q.HighWater()))
		}
	}
	stats.Steals = e.rec.Total(obs.StealSuccesses)
	stats.StealAttempts = e.rec.Total(obs.StealAttempts)
	stats.ChunkGrow = e.rec.Total(obs.ChunkGrow)
	stats.ChunkShrink = e.rec.Total(obs.ChunkShrink)
	stats.StolenVertices = e.rec.Total(obs.StolenVertices)
	stats.FailedClaims = e.rec.Total(obs.FailedClaims)
	stats.CursorRoots = e.rec.Total(obs.SeededComponents)
	for i := range slotOW {
		stats.VerticesPerProc[i] = slotOW[i].Get(obs.VerticesClaimed)
		stats.EdgesPerProc[i] = slotOW[i].Get(obs.EdgesScanned)
	}
}

// rearm resets every run-scoped field of the engine's traversals for
// the next pooled Run: parent sentinels, cursors, the failed-steal
// signals, the work queues, and the per-run seed. The recorder reset is the
// caller's (it is engine-global, one per workspace).
func (e *engine) rearm(seed uint64) {
	for i := range e.parent {
		e.parent[i] = graph.None
	}
	e.o.Seed = seed
	for _, t := range e.ts {
		t.o.Seed = seed
		t.fail.Reset()
		t.visited.Store(0)
		t.cursor.Store(0)
		t.sleepers.Store(0)
		t.abort.Store(false)
		for _, q := range t.queues {
			q.Reset()
		}
	}
}
