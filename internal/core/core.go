// Package core implements the paper's contribution: a randomized
// parallel spanning-tree algorithm for shared-memory multiprocessors
// with two main steps (Section 2, "A New Spanning Tree Algorithm For
// SMPs"):
//
//  1. Stub spanning tree: one processor generates a small portion of the
//     spanning tree by randomly walking the graph for O(p) steps; the
//     stub's vertices are distributed evenly across the processors'
//     queues as traversal seeds.
//
//  2. Work-stealing graph traversal: each processor runs the sequential
//     BFS-style traversal of Algorithm 1 from its seeds, claiming
//     (coloring) vertices and writing their parent pointers. Races to
//     color the same vertex are benign — whichever processor wins yields
//     a valid tree, only its shape differs. Idle processors steal half
//     of a random victim's queue; if even stealing finds nothing, they
//     sleep, and a quiescence protocol either hands out the uncovered
//     components or (for pathological low-connectivity inputs, when the
//     sleeper count crosses a threshold) aborts into a Shiloach-Vishkin
//     pass over the contracted graph, the paper's detection-and-fallback
//     mechanism. The hand-out is a private sweep: the processor elected
//     at quiescence claims the next uncovered vertex as a root, traverses
//     that component on its own buffer, and moves on to the next root,
//     until a component turns out big enough to share — its frontier then
//     goes onto the leader's queue for the team to steal. A graph with
//     tens of thousands of tiny components thus costs one quiescence
//     episode per big component instead of one per component.
//
// The expected running time scales linearly with p for n >> p^2: each
// processor performs O((n+m)/p) work with O(1) barrier synchronizations,
// versus SV's O(log n) barriers and O((n log^2 n + m log n)/p) work.
//
// Unlike the 2004 pthreads code, vertex claiming uses a compare-and-swap
// rather than racy plain writes: Go's memory model requires synchronized
// access, and CAS preserves the algorithm's properties while making
// "only one processor succeeds at setting the vertex's parent" literal.
// The CAS lands directly on the fused parent array (graph.None means
// unclaimed; roots carry a self-parent sentinel until the end of the
// run), so claiming a vertex is one non-contiguous access instead of the
// color-load-plus-parent-write pair of a two-array port. The paper's
// multiply-colored-vertex events surface here as failed claim CASes,
// which Stats counts.
//
// Every team reads its graph through a compact graph.CSR32 view: 4-byte
// offsets where the graph.Graph it mirrors has 8-byte ones (the
// adjacency stream is 4 bytes wide in both), in one allocation. The
// single team reads the whole graph's mirror, a shard team (engine.go)
// its shard's intra-shard view.
//
// The traversal hot path is batched: the owner drains its queue in
// chunks per lock acquisition, accumulates newly claimed children in a
// private buffer that it flushes with one PushBatch per chunk, and
// counts claimed vertices locally, publishing to the shared progress
// counter at chunk boundaries and (mandatorily) on every busy-to-idle
// transition — which is what keeps the quiescence invariant "all
// processors asleep ⇒ the progress count is exact" true by construction.
// The chunk itself is self-tuning by default (Options.ChunkPolicy): each
// worker's controller grows it while the local queue is deep and steals
// are succeeding and shrinks it toward 1 when thieves starve, so deep
// regular frontiers get the lock amortization of a large chunk while
// shallow or high-diameter frontiers keep their few vertices visible to
// thieves. sched.ChunkFixed with Options.ChunkSize restores the static
// chunk.
package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/sched"
	"spantree/internal/smpmodel"
	"spantree/internal/spansv"
	"spantree/internal/wsq"
	"spantree/internal/xrand"
)

// DefaultChunkSize is the queue-drain chunk used when Options.ChunkSize
// is unset: the owner pays ~2 lock operations per this many vertices.
// Batching only amortizes once per-processor queue depth reaches this
// order, so inputs with n/p well below it run in the startup regime.
const DefaultChunkSize = sched.DefaultChunkSize

// Options configures a run of the algorithm. The traversal reads the
// graph through its compact graph.CSR32 mirror (built once per run, or
// once per Workspace), so the graph must have fewer than 2^32
// adjacency slots; larger graphs get graph.CompactOf's error.
type Options struct {
	// NumProcs is the number of virtual processors p (>= 1).
	NumProcs int
	// Seed drives the stub random walk and victim selection.
	Seed uint64
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
	// Obs, when non-nil, is the observability recorder the run reports
	// into (per-worker counters, optional event trace). It must have at
	// least NumProcs worker slots and should be fresh for each run —
	// Stats is derived from its totals. When nil, the run uses a private
	// recorder so Stats stays available either way.
	Obs *obs.Recorder

	// StubSteps is the length of the stub random walk; 0 means 2*p
	// (the paper specifies O(p) steps).
	StubSteps int

	// ChunkPolicy selects how the queue-drain chunk is chosen. The zero
	// value is sched.ChunkAdaptive: a per-worker controller that grows
	// the chunk while the local queue is deep and steals are succeeding
	// and shrinks it toward 1 when thieves starve. sched.ChunkFixed
	// drains exactly ChunkSize vertices per lock acquisition.
	ChunkPolicy sched.ChunkPolicy

	// ChunkSize is the number of vertices a processor drains from its
	// queue per lock acquisition, and therefore also the flush cadence of
	// the per-worker child and progress batches. Under sched.ChunkFixed,
	// <= 0 means DefaultChunkSize and 1 reproduces the unbatched
	// one-lock-op-per-vertex hot path (ablation). Under
	// sched.ChunkAdaptive it caps the controller's growth (<= 0 means
	// sched.AdaptiveMaxChunk).
	ChunkSize int

	// Shards partitions the execution: the vertex range is split into
	// this many contiguous shards (graph.PartitionCSR, with the
	// generator-aware cut policy picked from the graph's name), each
	// traversed by its own team of workers over a compact per-shard CSR32
	// view, and the per-shard forests are joined through the partition's
	// boundary edges by a union-find stitch pass (spanuf.Stitch). 0 or 1
	// runs the single-team path — the shards=1 special case of the same
	// engine. NumProcs is the TOTAL worker budget: with Shards <= NumProcs
	// the teams split it, with Shards > NumProcs single-worker teams run
	// in sequential waves of NumProcs. Shards > 1 requires
	// FallbackThreshold == 0 (the stitch pass needs completed shard
	// forests; the SV fallback escape hatch is a single-team remedy).
	Shards int

	// Deg2Eliminate enables the degree-2 vertex elimination preprocessing
	// step described at the end of the paper's Section 2.
	Deg2Eliminate bool

	// NoSteal disables work stealing (ablation: reproduces the paper's
	// Fig. 2 load-imbalance scenario).
	NoSteal bool
	// NoStub skips the stub spanning tree and seeds only processor 0
	// (ablation).
	NoStub bool

	// FallbackThreshold, if > 0, aborts the traversal into the SV
	// fallback once at least this many processors are asleep with no
	// stealable work, the paper's detection mechanism. 0 disables the
	// fallback (the paper notes it is "almost never" triggered; the
	// degenerate-chain experiment enables it).
	FallbackThreshold int

	// StallBudget, if > 0, arms the stuck-run watchdog: every worker
	// bumps a padded heartbeat slot whenever it advances (drains a
	// chunk, lands a steal, or sweeps uncovered components), and if no
	// worker anywhere advances for a full budget the run's flag trips
	// with fault.CauseStalled and the workers drain cooperatively,
	// returning fault.ErrStalled with partial stats. The watchdog
	// converts a silently wedged run (priority inversion, a straggler
	// holding the whole team, injected stalls) into a typed error while
	// the session stays reusable; workers must still reach a chunk
	// boundary to observe the trip, so a hard OS-level deadlock is out
	// of its scope. 0 disables the watchdog.
	StallBudget time.Duration

	// Cancel is the run's cooperative stop flag (nil never trips).
	// Workers poll it at chunk boundaries and idle transitions; when it
	// trips with a context cause the run drains and returns
	// fault.ErrCanceled / fault.ErrDeadline with the partial Stats.
	Cancel *fault.Flag
	// Chaos is the fault injector driving the stress suites (nil, and
	// compiled to no-ops in default builds, injects nothing).
	Chaos *chaos.Injector

	// testHook, when non-nil, runs at every worker chunk boundary (and
	// every lockstep turn) with the worker's tid. It lets the in-package
	// tests trip the cancel flag or panic at exact points without the
	// chaos build tag.
	testHook func(tid int)
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.StubSteps == 0 {
		out.StubSteps = 2 * out.NumProcs
	}
	// Under sched.ChunkAdaptive, ChunkSize <= 0 is meaningful (the
	// controller uses its own sched.AdaptiveMaxChunk cap), so only the
	// fixed policy defaults it.
	if out.ChunkPolicy == sched.ChunkFixed && out.ChunkSize <= 0 {
		out.ChunkSize = DefaultChunkSize
	}
	return out
}

// idleSleep is how long an idle processor sleeps between scans once its
// Gosched retries run out (the paper's "go to sleep for a duration").
// The 20µs is only what is asked for: with Go 1.24's timer granularity,
// time.Sleep(20µs) measures p10 30µs and p50 ~1ms on a 2-vCPU Linux
// host, so a sleeper typically rejoins a millisecond later. That wake
// latency is why quiescence hands the leader a whole sweep of
// components rather than one root per episode.
const idleSleep = 20 * time.Microsecond

// Stats reports what a run did.
type Stats struct {
	// StubSize is the number of vertices in the stub spanning tree.
	StubSize int
	// Steals counts successful steal operations; StealAttempts the
	// entries into the steal protocol (so Steals/StealAttempts is the
	// steal hit rate); StolenVertices the total vertices moved.
	Steals         int64
	StealAttempts  int64
	StolenVertices int64
	// ChunkGrow and ChunkShrink count the adaptive chunk controller's
	// steps across all workers (both 0 under ChunkPolicy fixed).
	ChunkGrow   int64
	ChunkShrink int64
	// FailedClaims counts CAS losses: a processor saw a vertex unvisited
	// but another processor claimed it first — the paper's
	// multiple-coloring race events ("less than ten vertices for a graph
	// with millions of vertices").
	FailedClaims int64
	// CursorRoots is the number of additional components discovered and
	// seeded by the quiescence protocol (0 for connected inputs).
	CursorRoots int64
	// FallbackTriggered reports whether the SV fallback ran; SVStats
	// holds its statistics when it did.
	FallbackTriggered bool
	SVStats           spansv.Stats
	// VerticesPerProc[i] is the number of vertices processor i claimed —
	// the load-balance evidence (expected ~n/p each with stealing).
	VerticesPerProc []int64
	// EdgesPerProc[i] is the number of arcs processor i scanned.
	EdgesPerProc []int64
	// Deg2Eliminated is the number of vertices removed by preprocessing.
	Deg2Eliminated int
	// LockstepRounds is the number of simulation rounds executed when
	// the deterministic lockstep driver ran (0 for concurrent runs).
	LockstepRounds int64
	// Panic is the isolated worker panic when one occurred (nil
	// otherwise); DegradedToSeq reports that the returned forest came
	// from the sequential BFS degradation path instead of the parallel
	// traversal. The forest is valid either way.
	Panic         *fault.PanicError
	DegradedToSeq bool
}

// StealHitRate returns Steals/StealAttempts, the fraction of entries
// into the steal protocol that obtained work (1.0 when no attempt was
// made — an always-busy run has nothing to regress).
func (s *Stats) StealHitRate() float64 {
	if s.StealAttempts == 0 {
		return 1
	}
	return float64(s.Steals) / float64(s.StealAttempts)
}

// MaxLoadImbalance returns max(VerticesPerProc)/mean, the headline
// load-balance figure (1.0 is perfect).
func (s *Stats) MaxLoadImbalance() float64 {
	if len(s.VerticesPerProc) == 0 {
		return 1
	}
	var sum, max int64
	for _, v := range s.VerticesPerProc {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(s.VerticesPerProc))
	return float64(max) / mean
}

// SpanningForest runs the algorithm and returns the forest as a parent
// array (parent[v] == graph.None marks each component's root) plus run
// statistics.
func SpanningForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
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
		return runWithDeg2(g, o)
	}
	return run(g, o)
}

// runWithDeg2 reduces the graph, solves the reduced instance, and
// expands the forest back, charging the (parallelizable, but here
// sequential) reduction to processor 0.
func runWithDeg2(g *graph.Graph, o Options) ([]graph.VID, Stats, error) {
	red := graph.EliminateDegree2(g)
	probe0 := o.Model.Probe(0)
	// The reduction scans every vertex and edge once.
	probe0.NonContig(int64(g.NumVertices()))
	probe0.Contig(int64(len(g.Adj)))
	inner := o
	inner.Deg2Eliminate = false
	redParent, stats, err := run(red.Reduced, inner)
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

// traversal holds the shared state of the work-stealing phase of one
// team. A single-team run has one traversal covering the whole graph; a
// sharded run (engine.go) has one per shard, all writing into the same
// shared parent array over disjoint vertex ranges. Both are built by
// engine.newShardTraversal.
type traversal struct {
	// cg is the team's compact view: the whole graph's CSR32 mirror for a
	// single team, the shard's intra-shard view otherwise. Offsets are
	// indexed by the local id v-lo, adjacency ids are global.
	cg *graph.CSR32
	// g is the whole graph, set only for the single team: the SV
	// fallback grafts over it.
	g *graph.Graph
	o Options
	n int
	// lo is the first vertex of this traversal's range [lo, lo+n): 0 for
	// a whole-graph traversal, the shard's lower bound for a shard team.
	// parent and span are indexed by GLOBAL vertex id throughout.
	lo graph.VID
	// tidBase maps this team's local worker ids onto the run's global
	// processor slots: local tid uses recorder slot and model processor
	// tidBase+tid. 0 for a whole-graph traversal.
	tidBase int
	// parent is the fused claim array: graph.None means unclaimed, any
	// other value is the claimed parent. Roots hold a self-parent
	// sentinel (parent[v] == v) while the traversal runs so they stay
	// distinguishable from unclaimed vertices; normalizeRoots rewrites
	// the sentinel to graph.None before the forest is returned. Fusing
	// claim state into the parent array halves the non-contiguous
	// accesses per scanned edge versus a separate color array and
	// shrinks per-vertex state by 4 bytes.
	parent []graph.VID
	queues []*wsq.StealHalf
	// span[v], in non-contiguous-access units, is the earliest virtual
	// time at which v's claim can complete: its parent's span plus the
	// cost of processing the parent. The maximum over vertices is the
	// dependency span S of the traversal, reported to the cost model so
	// Brent's bound max(W/p, S) correctly denies speedup on high-diameter
	// inputs (the paper's degenerate chain). Allocated only when a cost
	// model is attached.
	span []int64

	// minSteal is the smallest victim queue worth stealing from,
	// sched.MinStealLen(p): the constant floor of 2 scaled by p/2 at high
	// p.
	minSteal int

	visited atomic.Int64 // claimed vertices; == n means the forest is done
	cursor  atomic.Int64 // next vertex the quiescence protocol inspects

	// fail is the per-victim failed-steal signal. Thieves whose full
	// scan comes up empty charge the specific workers still hoarding
	// sub-threshold queues; each owner's adaptive chunk controller reads
	// only its own slot at drain boundaries, so starvation shrinks the
	// drains of the workers actually being raided while well-fed workers
	// elsewhere keep their full lock amortization.
	fail *sched.FailSignal

	sleepers atomic.Int32
	abort    atomic.Bool // set when the fallback threshold trips

	// cancel is the run's stop flag (never nil: newEngine substitutes a
	// private flag when the caller passed none, so panic isolation
	// always has somewhere to record its cause). inj is the chaos fault
	// injector (nil injects nothing). wd is the engine's stuck-run
	// watchdog (nil unless Options.StallBudget > 0); workers beat their
	// global slot tidBase+tid whenever they advance.
	cancel *fault.Flag
	inj    *chaos.Injector
	wd     *fault.Watchdog
	// seedMu serializes the quiescence-time seeding of new components so
	// that exactly one root is created per uncovered component.
	seedMu sync.Mutex

	// rec is the unified observability layer: all run statistics —
	// per-worker work counts, steal traffic, failed claims, seeded
	// components — live in its padded per-worker slots, and Stats is
	// derived from its snapshot after the run.
	rec *obs.Recorder
}

// initQueues builds the team's work queues. mk, when non-nil, supplies
// externally pooled queues (the Workspace path, one call per worker in
// shard-major tid order, handed the team range's vertex count);
// otherwise one-shot queues sized for the team's share of its range are
// allocated.
func (t *traversal) initQueues(mk func(n int) *wsq.StealHalf) {
	if mk != nil {
		for i := range t.queues {
			t.queues[i] = mk(t.n)
		}
		return
	}
	initCap := t.n/t.o.NumProcs + 16
	for i := range t.queues {
		q := wsq.NewStealHalf(min(initCap, 1<<16))
		// Queue high-water accounting costs a check on every push, so it
		// runs only when the caller asked to observe the run.
		q.TrackHighWater(t.o.Obs != nil)
		t.queues[i] = q
	}
}

// claim attempts to acquire w with parent p by a CAS directly on the
// fused parent array. Roots (p == graph.None) are claimed with the
// self-parent sentinel so they remain distinguishable from unclaimed
// vertices until normalizeRoots runs. The caller owns progress
// counting: hot paths batch it, cold paths use claimSeq.
func (t *traversal) claim(w, p graph.VID) bool {
	if p == graph.None {
		p = w
	}
	return atomic.CompareAndSwapInt32(&t.parent[w], graph.None, p)
}

// claimSeq is claim plus an immediate shared-progress update, for the
// cold paths (stub walk, quiescence seeding) where batching buys
// nothing.
func (t *traversal) claimSeq(w, p graph.VID) bool {
	if !t.claim(w, p) {
		return false
	}
	t.visited.Add(1)
	return true
}

// normalizeRoots rewrites the self-parent root sentinel of the fused
// claim array back to graph.None over this traversal's range,
// restoring the public forest representation. One streaming pass,
// charged to the team's first processor.
func (t *traversal) normalizeRoots() {
	for v := t.lo; v < t.lo+graph.VID(t.n); v++ {
		if t.parent[v] == v {
			t.parent[v] = graph.None
		}
	}
	t.o.Model.Probe(t.tidBase).Contig(int64(t.n))
}

// run executes both steps of the algorithm on g through the engine
// layer: a single-team run is the shards=1 special case of the same
// code path (see engine.go).
func run(g *graph.Graph, o Options) ([]graph.VID, Stats, error) {
	e, err := newEngine(g, o, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	defer e.wd.Close() // one-shot engine: the run owns the watchdog
	return e.run()
}

// recoverWorker records an isolated worker panic: per-worker counter and
// trace event (written on the panicking worker's own goroutine, keeping
// the recorder's single-writer contract), then the run flag trips with
// the structured PanicError so the teammates drain at their next poll.
func (t *traversal) recoverWorker(tid int, r any) {
	ow := t.rec.Worker(t.tidBase + tid)
	ow.Incr(obs.PanicsRecovered)
	ow.Trace(obs.EvPanic, 0, 0)
	t.cancel.TripPanic(&fault.PanicError{
		Worker: t.tidBase + tid, Value: r, Stack: debug.Stack(),
	})
}

// workerState is one worker's reusable hot-loop state: the per-stream
// RNG, the adaptive chunk controller, the drain/child/steal buffers, the
// cached observability handles, and the unpublished progress batch. A
// one-shot run builds one per worker goroutine on the stack; a Workspace
// keeps p of them for the life of a session and rearms them with
// resetWorkerState, which is what makes a warmed session's steady state
// allocation-free.
type workerState struct {
	r     xrand.Rand       // per-stream RNG, reseeded per run
	ctrl  sched.Controller // drain-chunk controller, rebuilt per run
	probe *smpmodel.Probe
	// ow is cached because Recorder.Worker escapes its handle to the heap
	// at every call; one handle per worker lives as long as the recorder.
	ow *obs.Worker
	// Hot-path counters batch into lc and flush at chunk boundaries;
	// per-vertex atomic stores would put a fence (XCHG) on the claim loop.
	lc obs.Local
	// chunk receives the owner-side batched drain; out accumulates the
	// children claimed while processing the chunk, flushed with a single
	// PushBatch; stealBuf receives steal loot. Together chunk and out turn
	// ~2 lock operations per vertex into ~2 per chunk. All three grow only
	// when undersized, so a pre-provisioned session never reallocates.
	chunk    []int32
	out      []int32
	stealBuf []int32
	// pend is this worker's unpublished progress: vertices claimed since
	// the last flush of the shared visited counter. It is flushed at every
	// chunk boundary and — mandatorily — before entering the idle/steal
	// phase, so whenever a worker is idle its contribution is fully
	// published and "all p asleep ⇒ visited is exact" holds by
	// construction.
	pend int64
}

// resetWorkerState (re)arms ws for one run of t's traversal: the
// controller is rebuilt from the run options, buffers are grown only
// when too small for the controller's cap, the RNG is reseeded to the
// exact stream a fresh xrand.New(seed).Split(tid+1) would produce, and
// the counter batch is zeroed. The cached recorder handle survives
// because a pooled traversal keeps one Recorder for its whole life.
func (t *traversal) resetWorkerState(tid int, ws *workerState) {
	ws.ctrl = sched.NewController(t.o.ChunkPolicy, t.o.ChunkSize)
	if cap(ws.chunk) < ws.ctrl.Max() {
		ws.chunk = make([]int32, ws.ctrl.Max())
	}
	ws.chunk = ws.chunk[:ws.ctrl.Max()]
	if cap(ws.out) < 4*ws.ctrl.Max() {
		ws.out = make([]int32, 0, 4*ws.ctrl.Max())
	}
	ws.out = ws.out[:0]
	if cap(ws.stealBuf) < 256 {
		ws.stealBuf = make([]int32, 0, 256)
	}
	ws.stealBuf = ws.stealBuf[:0]
	var base xrand.Rand
	base.Reseed(t.o.Seed)
	ws.r.ReseedSplit(&base, uint64(t.tidBase+tid)+1)
	ws.probe = t.o.Model.Probe(t.tidBase + tid)
	if ws.ow == nil {
		ws.ow = t.rec.Worker(t.tidBase + tid)
	}
	ws.lc = obs.Local{}
	ws.pend = 0
}

// flushVisited publishes ws's progress batch to the shared counter.
func (t *traversal) flushVisited(ws *workerState) {
	if ws.pend != 0 {
		t.visited.Add(ws.pend)
		ws.pend = 0
	}
}

// finishWorker drains ws's batches after its loop exits (normally or by
// panic unwinding): progress, the chunk high-water mark, counters.
func (t *traversal) finishWorker(ws *workerState) {
	t.flushVisited(ws)
	ws.ow.Max(obs.ChunkHighWater, int64(ws.ctrl.HighWater()))
	ws.lc.FlushTo(ws.ow)
}

// worker is the per-processor traversal entry point of a one-shot run:
// fresh state, then the shared loop.
func (t *traversal) worker(tid int) {
	var ws workerState
	t.resetWorkerState(tid, &ws)
	t.workerLoop(tid, &ws)
}

// workerLoop is the per-processor traversal loop: drain own queue in
// chunks, steal, and participate in the quiescence protocol when
// everything is empty.
func (t *traversal) workerLoop(tid int, ws *workerState) {
	myQ := t.queues[tid]
	defer t.finishWorker(ws)

	// fruitless counts consecutive cycles in which neither the own queue
	// nor stealing produced work. It is the "has slept for a duration"
	// patience of the paper's detection mechanism, and unlike a counter
	// local to the waiting loop it does not reset just because a victim
	// queue flickered above the steal threshold for a moment.
	fruitless := 0
	processed := 0
	// The cancel poll rides the chunk boundary the loop already pays for:
	// one extra atomic load per drain, which is what bounds the response
	// to a trip at one chunk.
	for t.visited.Load() < int64(t.n) && !t.abort.Load() && !t.cancel.Tripped() {
		if h := t.o.testHook; h != nil {
			h(tid)
		}
		t.inj.Visit(t.tidBase+tid, chaos.PointDrain)
		nPop, qrem := myQ.PopBatchLen(ws.chunk[:ws.ctrl.Chunk()])
		if nPop > 0 {
			// The progress heartbeat rides the chunk boundary the loop
			// already pays for, and only fires when the drain obtained
			// work — a team spinning idle reads as stalled.
			t.wd.Beat(t.tidBase + tid)
			ws.probe.NonContig(2) // one locked chunk dequeue
			ws.lc.Incr(obs.ChunkDrains)
			ws.lc.Add(obs.DrainedVertices, int64(nPop))
			ws.lc.Incr(obs.DrainHistBucket(nPop))
			ws.out = ws.out[:0]
			for _, v := range ws.chunk[:nPop] {
				t.process(tid, graph.VID(v), ws.probe, &ws.out, &ws.lc, &ws.pend)
			}
			if len(ws.out) > 0 {
				myQ.PushBatch(ws.out)
				ws.probe.NonContig(2 + int64(len(ws.out))) // one locked batch enqueue
			}
			t.flushVisited(ws)
			// The children just flushed are queue depth too: the next
			// drain size follows from the post-flush depth and the failed
			// steals charged against this worker specifically.
			ws.ctrl.Adapt(qrem+len(ws.out), t.fail.Load(tid), &ws.lc)
			fruitless = 0
			processed += nPop
			// The yield/flush cadence is deliberately NOT the controller's
			// chunk: it exists so the protocol behaves the same on hosts
			// with fewer cores than virtual processors (a busy goroutine
			// holding its OS thread for a whole scheduler quantum means
			// idle workers never observe stealable queues or starvation),
			// and that visibility argument doesn't change when the
			// controller shrinks. Tying it to an adaptively-shrunk chunk
			// made serial-dependency inputs yield after every vertex —
			// a 3x wall-clock penalty on the chain under oversubscription.
			if processed >= DefaultChunkSize {
				processed = 0
				ws.lc.FlushTo(ws.ow)
				runtime.Gosched()
			}
			continue
		}
		if fruitless == 0 {
			// Busy-to-idle transition: local work ran dry; make the
			// progress and counter batches visible before the idle/steal
			// phase (the quiescence protocol depends on the former).
			t.flushVisited(ws)
			ws.lc.FlushTo(ws.ow)
			ws.ow.Incr(obs.IdleTransitions)
			ws.ow.Trace(obs.EvIdle, 0, 0)
		}
		if !t.o.NoSteal {
			if w, ok := t.trySteal(tid, &ws.r, myQ, &ws.stealBuf, ws.probe, ws.ow); ok {
				t.wd.Beat(t.tidBase + tid)
				// Process one stolen vertex immediately: a thief that only
				// re-queued its loot could lose it to another thief before
				// ever popping, livelocking a one-element frontier.
				ws.out = ws.out[:0]
				t.process(tid, w, ws.probe, &ws.out, &ws.lc, &ws.pend)
				if len(ws.out) > 0 {
					myQ.PushBatch(ws.out)
					ws.probe.NonContig(2 + int64(len(ws.out)))
				}
				t.flushVisited(ws)
				fruitless = 0
				continue
			}
		}
		if !t.idleOnce(tid, myQ, fruitless, ws) {
			return // done or aborted
		}
		fruitless++
	}
}

// process scans v's neighbors, claiming the unvisited ones (Algorithm 1,
// lines 2.2-2.7). Claimed children are appended to out (the caller's
// chunk-local buffer, flushed with one PushBatch) and counted in pend
// (the caller's unpublished progress). A chaos stall injected here
// widens the window between the parent[w] load and the claim CAS — the
// deterministic stand-in for a CAS retry storm.
func (t *traversal) process(tid int, v graph.VID, probe *smpmodel.Probe,
	out *[]int32, lc *obs.Local, pend *int64) {
	t.inj.Visit(t.tidBase+tid, chaos.PointClaim)
	lc.Incr(obs.VerticesClaimed)
	// The offsets are indexed by local id (v - lo, a no-op for the
	// single team); the adjacency ids are global. The 4-byte offset load
	// is charged at the compact rate; the adjacency stream is charged as
	// plain Contig, because graph.Graph's ids are 4 bytes wide too.
	nb := t.cg.Neighbors32(v - t.lo)
	probe.NonContigC(1) // load adjacency offset
	probe.Contig(int64(len(nb)))
	lc.Add(obs.EdgesScanned, int64(len(nb)))
	var childSpan int64
	if t.span != nil {
		// A child claimed while processing v completes no earlier than
		// v's own claim plus the cost of scanning v's neighborhood.
		// span[v] was written by v's claimer before v was queued, and
		// span[w] is written only by w's winning claimer, so the queue
		// handoff orders every access.
		childSpan = t.span[v] + procCostNC(len(nb))
	}
	for _, w := range nb {
		probe.NonContig(1) // fused claim-state load of parent[w]
		if atomic.LoadInt32(&t.parent[w]) != graph.None {
			continue
		}
		if t.claim(graph.VID(w), v) {
			probe.NonContig(1) // winning claim CAS
			if t.span != nil {
				t.span[w] = childSpan
			}
			*out = append(*out, int32(w))
			*pend++
		} else {
			lc.Incr(obs.FailedClaims)
		}
	}
}

// procCostNC is the modeled non-contiguous cost of processing one vertex
// of the given degree on the batched hot path: the amortized share of the
// chunked dequeue and batched enqueue locks, the adjacency offset load,
// one fused claim-state access per incident arc, and the winning claim
// CAS for one child.
func procCostNC(deg int) int64 { return 4 + int64(deg) }

// spanMax returns the traversal's dependency span over its range: the
// maximum claim-completion time in non-contiguous units, which the
// engine folds across concurrent teams and reports to the cost model.
// It runs after the final join and before normalizeRoots, so claimed
// vertices (roots included, via the self-parent sentinel) are exactly
// those with parent != graph.None.
func (t *traversal) spanMax() int64 {
	if t.span == nil {
		return 0
	}
	var max int64
	for v := 0; v < t.n; v++ {
		gv := t.lo + graph.VID(v)
		if t.parent[gv] == graph.None {
			continue
		}
		if s := t.span[gv] + procCostNC(t.cg.Degree(graph.VID(v))); s > max {
			max = s
		}
	}
	return max
}

// trySteal picks a victim by size-biased two-choice sampling: probe two
// random victims through the atomic Len mirror and steal from the longer
// — the classic power-of-two-choices bias toward loaded queues without
// scanning all p. When both samples are below the p-scaled t.minSteal
// threshold it falls back to the full id-order scan from a random start,
// so a lone long queue is still always found. On success it queues all
// but the first stolen vertex and returns the first for the caller to
// process directly. A fully fruitless scan charges a failed steal
// against each victim still holding a non-empty sub-threshold queue —
// those are the workers hiding frontier in their drains — and their
// chunk controllers read their own slot as the signal to shrink and
// keep work visible. Empty victims are not charged (they are starving
// too), and neither is the thief itself.
func (t *traversal) trySteal(tid int, r *xrand.Rand, myQ *wsq.StealHalf,
	stealBuf *[]int32, probe *smpmodel.Probe, ow *obs.Worker) (graph.VID, bool) {
	p := t.o.NumProcs
	if p == 1 {
		return 0, false
	}
	t.inj.Visit(t.tidBase+tid, chaos.PointSteal)
	ow.Incr(obs.StealAttempts)
	// A vetoed attempt fails before scanning any victim — the injected
	// delayed/failed-steal fault; the thief falls through to the idle
	// protocol and retries, so no work is lost, only deferred.
	if t.inj.VetoSteal(t.tidBase + tid) {
		ow.Incr(obs.StealFailures)
		return 0, false
	}
	// Two independent draws over the p-1 non-self victims (they may
	// coincide); each Len probe is one polling access of the size mirror.
	a := (tid + 1 + r.Intn(p-1)) % p
	b := (tid + 1 + r.Intn(p-1)) % p
	probe.NonContig(2)
	if t.queues[b].Len() > t.queues[a].Len() {
		a = b
	}
	if t.queues[a].Len() >= t.minSteal {
		if w, ok := t.stealFrom(a, myQ, stealBuf, probe, ow); ok {
			return w, true
		}
	}
	start := r.Intn(p)
	for i := 0; i < p; i++ {
		victim := (start + i) % p
		if victim == tid {
			continue
		}
		if t.queues[victim].Len() < t.minSteal {
			continue
		}
		if w, ok := t.stealFrom(victim, myQ, stealBuf, probe, ow); ok {
			return w, true
		}
	}
	ow.Incr(obs.StealFailures)
	for i := 0; i < p; i++ {
		victim := (start + i) % p
		if victim == tid {
			continue
		}
		if l := t.queues[victim].Len(); l > 0 && l < t.minSteal {
			t.fail.Record(victim)
		}
	}
	// A fruitless scan costs one polling access before the processor
	// sleeps; sleeping itself is free in the cost model, matching the
	// paper's condition-variable design.
	probe.NonContig(1)
	return 0, false
}

// stealFrom attempts one steal-half operation against victim, pushing
// all but the first stolen vertex onto myQ and returning the first.
func (t *traversal) stealFrom(victim int, myQ *wsq.StealHalf, stealBuf *[]int32,
	probe *smpmodel.Probe, ow *obs.Worker) (graph.VID, bool) {
	*stealBuf = (*stealBuf)[:0]
	*stealBuf = t.queues[victim].Steal(*stealBuf)
	if len(*stealBuf) == 0 {
		return 0, false
	}
	ow.Incr(obs.StealSuccesses)
	ow.Add(obs.StolenVertices, int64(len(*stealBuf)))
	ow.Trace(obs.EvSteal, int64(victim), int64(len(*stealBuf)))
	probe.NonContig(int64(len(*stealBuf)) + 2) // move the loot
	myQ.PushBatch((*stealBuf)[1:])
	return graph.VID((*stealBuf)[0]), true
}

// idleOnce performs one quantum of the sleeping and quiescence protocol
// and returns true if the worker should retry its work sources, false if
// the traversal is over (done or aborted). fruitless is the caller's
// count of consecutive unproductive cycles.
//
// Quiescence invariant: when all p processors are asleep, no processor
// is processing a vertex, so no claims are in flight; every vertex
// adjacent to a colored vertex is itself colored, hence the uncolored
// vertices form whole components. The elected leader (the processor
// that observes sleepers == p) may therefore sweep them: claim an
// uncolored vertex as a fresh root, cover its component, repeat — that
// is how disconnected inputs become spanning forests with exactly one
// root per component.
func (t *traversal) idleOnce(tid int, myQ *wsq.StealHalf, fruitless int, ws *workerState) bool {
	t.inj.Visit(t.tidBase+tid, chaos.PointIdle)
	t.sleepers.Add(1)
	defer t.sleepers.Add(-1)
	if t.visited.Load() >= int64(t.n) || t.abort.Load() || t.cancel.Tripped() {
		return false
	}
	s := t.sleepers.Load()
	// Paper's detection mechanism: enough sleepers => switch to SV. A
	// processor only counts after several fruitless cycles (the paper's
	// "go to sleep for a duration"), so the transient idleness of
	// startup and wind-down does not trip the threshold.
	if th := t.o.FallbackThreshold; th > 0 && fruitless >= 8 && int(s) >= th {
		if t.abort.CompareAndSwap(false, true) {
			ws.ow.Incr(obs.FallbackTriggers)
			ws.ow.Trace(obs.EvFallback, int64(s), 0)
		}
		return false
	}
	if int(s) == t.o.NumProcs {
		// Everyone is asleep: elect a leader to sweep the uncovered
		// components from the cursor. When the cursor is exhausted every
		// vertex has been inspected and colored, so visited == n and the
		// caller's loop exits on the next check.
		t.trySeedNextComponent(tid, myQ, ws)
		return true
	}
	if fruitless < 4 {
		runtime.Gosched()
	} else {
		time.Sleep(idleSleep)
	}
	return true
}

// trySeedNextComponent elects the quiescence leader under the seeding
// mutex and runs its sweep. The re-checks inside the mutex make the
// quiescence decision sound, and their order matters: every queue empty
// first, then all p processors asleep. Only a queue's owner pushes onto
// it, a processor goes to sleep only with its own queue empty, and the
// one push made while asleep — a sweep's spill — happens under this
// mutex. So outside the mutex a queue never gains vertices while its
// owner sleeps, and all queues empty, then all p asleep, means all
// queues are still empty and no claim is in flight: every vertex
// adjacent to a colored vertex is colored, and the uncolored set is a
// union of whole components. (Checked the other way round, a leader
// counted asleep just after spilling could wake and drain its whole
// queue before the queue scan, passing both checks mid-traversal.)
// Other processors that reach quiescence during a sweep block here
// until it ends.
func (t *traversal) trySeedNextComponent(tid int, myQ *wsq.StealHalf, ws *workerState) {
	t.seedMu.Lock()
	defer t.seedMu.Unlock()
	for i := 0; i < t.o.NumProcs; i++ {
		if t.queues[i].Len() > 0 {
			return
		}
	}
	if int(t.sleepers.Load()) != t.o.NumProcs {
		return
	}
	t.sweep(tid, myQ, ws)
}

// sweep is the quiescence leader's private pass over the uncovered
// components, run under seedMu with every other processor asleep and
// every queue empty. It claims the next uncolored vertex as a root and
// covers that component on its own FIFO frontier (ws.out, live part
// fr[head:]) with the same process step the drain loop uses — so the
// claim order (BFS from the root, as a queue drain would produce) and
// the obs counters are those of the drain loop — publishes the visit
// count once per component, and only then claims the next root.
// Nobody else holds work meanwhile, so each root starts a component no
// other processor can reach: one root per component by construction.
//
// A component whose frontier reaches DefaultChunkSize is big: the
// frontier goes onto the leader's queue in one PushBatch, the sweep
// ends, and the team steals it; the next root waits for the next
// quiescence. The leader owns the cursor for the whole sweep — one
// load, a local scan, one store. Every DefaultChunkSize steps (cursor
// positions plus processed vertices) it polls for a stop, runs the test
// hook and the drain chaos point, and beats the watchdog: cancel latency
// stays at one chunk, a long sweep does not read as a stall, and the SV
// fallback can take over mid-sweep (it completes any partial forest, so
// the abandoned frontier needs no repair).
func (t *traversal) sweep(tid int, myQ *wsq.StealHalf, ws *workerState) {
	slot := t.tidBase + tid
	i, n := t.cursor.Load(), int64(t.n)
	fr, head := ws.out[:0], 0
	for steps := DefaultChunkSize; ; steps++ {
		if steps >= DefaultChunkSize {
			steps = 0
			if t.abort.Load() || t.cancel.Tripped() {
				break
			}
			if h := t.o.testHook; h != nil {
				h(tid)
			}
			t.inj.Visit(slot, chaos.PointDrain)
			t.wd.Beat(slot)
		}
		if head < len(fr) {
			v := fr[head]
			head++
			t.process(tid, graph.VID(v), ws.probe, &fr, &ws.lc, &ws.pend)
			if live := len(fr) - head; live >= DefaultChunkSize {
				myQ.PushBatch(fr[head:])
				ws.probe.NonContig(2 + int64(live)) // one locked batch enqueue
				break
			}
			if head >= DefaultChunkSize {
				// Slide the short live frontier to the front, so a long thin
				// component (a chain) does not grow the buffer.
				fr, head = fr[:copy(fr, fr[head:])], 0
			}
			continue
		}
		// The current component (if any) is covered: publish it, then
		// look for the next root.
		t.flushVisited(ws)
		if i >= n {
			break
		}
		v := t.lo + graph.VID(i)
		i++
		ws.probe.NonContig(1) // cursor inspection of parent[v]
		if atomic.LoadInt32(&t.parent[v]) != graph.None || !t.claim(v, graph.None) {
			continue
		}
		ws.pend++
		ws.lc.Incr(obs.SeededComponents)
		ws.ow.Trace(obs.EvComponentSeed, int64(v), 0)
		fr, head = append(fr[:0], int32(v)), 0
	}
	t.cursor.Store(i)
	t.flushVisited(ws)
	ws.lc.FlushTo(ws.ow)
	ws.out = fr[:0]
}

// nextUncolored advances the shared cursor to the next uncolored vertex
// of this traversal's range. Only the lockstep driver uses it: the
// model deliberately keeps one seed per quiescence round, so its counts
// are those of the paper's protocol, not of the concurrent sweep.
func (t *traversal) nextUncolored(probe *smpmodel.Probe) (graph.VID, bool) {
	for {
		i := t.cursor.Add(1) - 1
		if i >= int64(t.n) {
			return 0, false
		}
		probe.NonContig(1)
		if atomic.LoadInt32(&t.parent[t.lo+graph.VID(i)]) == graph.None {
			return t.lo + graph.VID(i), true
		}
	}
}

// fallback completes a partially grown forest with Shiloach-Vishkin, the
// paper's remedy for pathological low-connectivity inputs: the grown
// subtrees are contracted to super-vertices (their roots) and SV grafts
// the rest.
func (t *traversal) fallback() (spansv.Stats, error) {
	n := t.n
	// Resolve every colored vertex to the root of its subtree, path-
	// compressing as we go; uncolored vertices are their own stars.
	d := make([]int32, n)
	rootOf := make([]graph.VID, n)
	for i := range rootOf {
		rootOf[i] = graph.None
	}
	var path []graph.VID
	for v := 0; v < n; v++ {
		if rootOf[v] != graph.None {
			continue
		}
		path = path[:0]
		cur := graph.VID(v)
		// The walk must also stop on the self-parent root sentinel: the
		// fallback normally runs after normalizeRoots, but a partially
		// written parent array (an interrupted run, or a caller reusing
		// one) may still carry sentinels, and following parent[cur] == cur
		// would spin here forever.
		for rootOf[cur] == graph.None && t.parent[cur] != graph.None && t.parent[cur] != cur {
			path = append(path, cur)
			cur = t.parent[cur]
		}
		root := cur
		if rootOf[cur] != graph.None {
			root = rootOf[cur]
		}
		rootOf[cur] = root
		for _, u := range path {
			rootOf[u] = root
		}
	}
	for v := 0; v < n; v++ {
		d[v] = int32(rootOf[v])
	}
	t.o.Model.Probe(0).NonContig(int64(2 * n))

	edges, svStats, err := spansv.GraftFrom(t.g, d, spansv.Options{
		NumProcs: t.o.NumProcs,
		Model:    t.o.Model,
		Obs:      t.rec,
		Cancel:   t.cancel,
		Chaos:    t.inj,
	})
	if err != nil {
		return svStats, fmt.Errorf("core: SV fallback: %w", err)
	}
	// Attach each graft edge: the graft (v,w) merged root(v)'s tree under
	// w's component. Re-root v's subtree so that v becomes its root, then
	// point v at w. Total re-rooting work is bounded by the contracted
	// forest size.
	for _, e := range edges {
		rerootAt(t.parent, e.U)
		t.parent[e.U] = e.V
	}
	return svStats, nil
}

// rerootAt reverses the parent pointers on the path from v to its root,
// making v the root of its tree. The self-parent root sentinel of the
// fused claim array terminates the walk like graph.None does: on a
// partially-written parent array (the panic/cancel degradation paths
// hand one to the fallback) a sentinel mid-path would otherwise bounce
// the reversal back on itself and detach the subtree above it.
func rerootAt(parent []graph.VID, v graph.VID) {
	prev := graph.None
	cur := v
	for cur != graph.None {
		next := parent[cur]
		if next == cur {
			next = graph.None
		}
		parent[cur] = prev
		prev = cur
		cur = next
	}
}
