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
// The CAS lands directly on the fused parent array (a core-private
// sentinel means unclaimed; roots are claimed as graph.None outright),
// so claiming a vertex is one non-contiguous access instead of the
// color-load-plus-parent-write pair of a two-array port, and a finished
// traversal leaves the public forest in place with no final pass. The
// paper's multiply-colored-vertex events surface here as failed claim
// CASes, which Stats counts.
//
// The team reads its graph through the compact graph.CSR32 mirror:
// 4-byte offsets where the graph.Graph it mirrors has 8-byte ones (the
// adjacency stream is 4 bytes wide in both), in one allocation.
//
// Every concurrent run is a Workspace run: the team's goroutines are
// spawned when a workspace is built, woken per run and joined through
// one latch, where the waiting coordinator also watches the stall
// budget. A pooled workspace (NewWorkspace) parks its team between
// runs; SpanningForest builds a workspace sized for one run, runs it
// once and closes it. LockstepForest drives the same traversal in
// round-robin lockstep on the calling goroutine, for the cost model.
//
// The traversal hot path is batched: the owner drains its queue in
// chunks per lock acquisition, accumulates newly claimed children in a
// private buffer that it flushes with one PushBatch per chunk, and
// counts claimed vertices locally, publishing to the shared progress
// counter at chunk boundaries and (mandatorily) on every busy-to-idle
// transition — which is what keeps the quiescence invariant "all
// processors asleep ⇒ the progress count is exact" true by construction.
// The chunk is fixed for the run: par.DefaultChunkSize, the drain chunk
// of every parallel loop in the tree (Options.ChunkSize overrides it
// for the chunk ablation).
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
	"spantree/internal/par"
	"spantree/internal/smpmodel"
	"spantree/internal/spansv"
	"spantree/internal/wsq"
	"spantree/internal/xrand"
)

// sweepChunk is the quiescence sweep's cadence: the leader spills a
// component's frontier to its queue once it reaches this many vertices,
// and polls for a stop every this many steps. It is independent of the
// drain chunk: a spill this small hands a big component to the team
// early, and the poll bounds the sweep's cancel latency.
const sweepChunk = 64

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
	// Obs, when non-nil, is the observability recorder a one-shot run
	// reports into (per-worker counters, optional event trace). It must
	// have at least NumProcs worker slots and should be fresh for each
	// run: the run never resets it, and Stats is derived from its totals.
	// When nil, the run uses a private recorder so Stats stays available
	// either way. NewWorkspace rejects it: a pooled workspace resets its
	// private recorder before every run after the first.
	Obs *obs.Recorder

	// StubSteps is the length of the stub random walk; 0 means 2*p
	// (the paper specifies O(p) steps).
	StubSteps int

	// ChunkSize is the most vertices a processor drains from its queue
	// per lock acquisition, and therefore also the flush cadence of the
	// per-worker child and progress batches. <= 0 means
	// par.DefaultChunkSize. It is an ablation toggle like NoSteal and
	// NoStub: only the chunk ablation sets it, and 1 reproduces the
	// unbatched one-lock-op-per-vertex hot path.
	ChunkSize int

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

	// StallBudget, if > 0, bounds how long a concurrent run may go
	// without progress: every worker bumps a padded heartbeat slot
	// whenever it advances (drains a chunk, lands a steal, or sweeps
	// uncovered components), the coordinator waiting at the join samples
	// their sum every quarter budget, and if it has not moved for a full
	// budget the run's flag trips with fault.CauseStalled and the
	// workers drain cooperatively, returning fault.ErrStalled with
	// partial stats. This converts a silently wedged run (priority
	// inversion, a straggler holding the whole team, injected stalls)
	// into a typed error while the session stays reusable; workers must
	// still reach a chunk boundary to observe the trip, so a hard
	// OS-level deadlock is out of its scope. 0 disables it.
	// LockstepForest rejects a budget: its driver is its own caller.
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
	// pendantTrim starts the run with the graph's pendant trees already
	// claimed (graph.PendantTrees). NewWorkspace sets it, since a session
	// peels its graph once and reuses the result in every run; a one-shot
	// run gets it only through WithPendantTrim, the reference the pooled
	// path is tested against.
	pendantTrim bool
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.StubSteps == 0 {
		out.StubSteps = 2 * out.NumProcs
	}
	if out.ChunkSize <= 0 {
		out.ChunkSize = par.DefaultChunkSize
	}
	return out
}

// idleSleep is the timeout of an idle processor's park once its Gosched
// retries run out. A parked processor wakes on an event — a stealable
// queue, a sweep's spill, completion, the fallback's abort, a teammate's
// panic — so the timeout only bounds how long cancel, stall and
// fallback detection wait between polls (the paper's "go to sleep for a
// duration"). The 20µs is only what is asked for: with Go 1.24's timer
// granularity a 20µs timer measures p50 1.09 ms on a 2-vCPU Linux host
// (2,000 samples). That latency is why quiescence hands the leader a
// whole sweep of components rather than one root per episode.
const idleSleep = 20 * time.Microsecond

// yieldEvery is how many processed vertices a worker runs between
// runtime.Gosched calls. The yield exists so the protocol behaves the
// same on hosts with fewer cores than virtual processors: a busy
// goroutine holding its OS thread for a whole scheduler quantum means
// idle workers never observe stealable queues or starvation. 1024
// vertices of torus traversal take tens of microseconds, well inside a
// quantum, while a yield every 64 was measurable overhead on a pooled
// p = 2 Find (EXPERIMENTS.md, "Idle wake, yield cadence and root
// epilogue"). The yield is deliberately not gated on idle teammates: a
// gated yield is as fast for one session, but concurrent sessions on a
// shared host then starve each other.
const yieldEvery = 1024

// unclaimed marks a vertex no processor has claimed yet. It is distinct
// from graph.None, which a root is claimed as, so a completed traversal
// needs no pass to turn root sentinels into the public representation.
// It never leaves the core: a finished traversal has claimed every
// vertex, and the SV fallback resolves the leftovers of an aborted one.
const unclaimed = graph.None - 1

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
	// ChunkGrow and ChunkShrink are always 0: the drain chunk is fixed.
	// They are kept only because bench/lib.go reads them.
	ChunkGrow   int64
	ChunkShrink int64
	// Roots is the number of roots of the returned forest, one per
	// connected component. The core counts it as the run goes rather
	// than by scanning the forest: the stub's root plus one per
	// component a quiescence sweep seeded; the SV fallback and the
	// sequential degradation count their own.
	Roots int
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
	// VerticesPerProc[i] is the number of vertices processor i traversed
	// — the load-balance evidence (expected ~(n-Pendant)/p each with
	// stealing). Pre-claimed pendant vertices are never traversed.
	VerticesPerProc []int64
	// EdgesPerProc[i] is the number of arcs processor i scanned.
	EdgesPerProc []int64
	// Deg2Eliminated is the number of vertices removed by preprocessing.
	Deg2Eliminated int
	// Pendant is the number of vertices the run started with already
	// claimed: the pendant trees NewWorkspace computes once at
	// construction, each vertex under its neighbour toward the 2-core.
	// They add no root. 0 for one-shot runs.
	Pendant int
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
	return oneShot(g, opt, run)
}

// oneShot validates opt and runs drive, the concurrent or the lockstep
// driver, on g or on its degree-2 reduction.
func oneShot(g *graph.Graph, opt Options, drive func(*graph.Graph, Options) ([]graph.VID, Stats, error)) ([]graph.VID, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("core: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	if opt.Obs != nil && opt.Obs.NumWorkers() < opt.NumProcs {
		return nil, Stats{}, fmt.Errorf("core: Obs has %d worker slots, need >= %d",
			opt.Obs.NumWorkers(), opt.NumProcs)
	}
	o := opt.withDefaults()
	if o.Deg2Eliminate {
		return runWithDeg2(g, o, drive)
	}
	return drive(g, o)
}

// runWithDeg2 reduces the graph, solves the reduced instance with
// drive, and expands the forest back, charging the (parallelizable, but
// here sequential) reduction to processor 0.
func runWithDeg2(g *graph.Graph, o Options, drive func(*graph.Graph, Options) ([]graph.VID, Stats, error)) ([]graph.VID, Stats, error) {
	red := graph.EliminateDegree2(g)
	probe0 := o.Model.Probe(0)
	// The reduction scans every vertex and edge once.
	probe0.NonContig(int64(g.NumVertices()))
	probe0.Contig(int64(len(g.Adj)))
	inner := o
	inner.Deg2Eliminate = false
	redParent, stats, err := drive(red.Reduced, inner)
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

// traversal holds the state of one run: the graph and its compact
// mirror, the shared parent array, the team's queues and protocol
// state, and the observability and fault plumbing. Every driver runs
// one traversal over the whole graph (newTraversal in driver.go).
type traversal struct {
	// g is the graph; the SV fallback grafts over it. cg is its compact
	// mirror, the only CSR the traversal reads.
	g  *graph.Graph
	cg *graph.CSR32
	o  Options
	n  int
	// parent is the fused claim array: unclaimed means no processor has
	// claimed the vertex, graph.None a claimed root, any other value the
	// claimed parent. Fusing claim state into the parent array halves
	// the non-contiguous accesses per scanned edge versus a separate
	// color array and shrinks per-vertex state by 4 bytes.
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
	// par.MinStealLen(p): the constant floor of 2 scaled by p/2 at high
	// p.
	minSteal int

	visited atomic.Int64 // claimed vertices; == n means the forest is done
	cursor  atomic.Int64 // next vertex the quiescence protocol inspects

	sleepers atomic.Int32
	abort    atomic.Bool // set when the fallback threshold trips

	// wake is the team's idle-wake channel, the stand-in for the paper's
	// condition variable: parked processors receive from it, and a
	// worker sends one token when its queue becomes worth stealing from
	// while someone sleeps, or one per teammate on a team-wide event.
	// Its capacity is the team size, so sends never block and a token
	// sent just before its receiver parks is not lost. parkTimeout bounds
	// each park (idleSleep; white-box tests raise it so that a missing
	// wake fails instead of passing slowly).
	wake        chan struct{}
	parkTimeout time.Duration

	// cancel is the run's stop flag (never nil: newTraversal substitutes
	// a private flag when the caller passed none, so panic isolation
	// always has somewhere to record its cause). inj is the chaos fault
	// injector (nil injects nothing). beats holds one heartbeat slot per
	// worker (nil unless Options.StallBudget > 0); workers beat their
	// slot whenever they advance, and a Workspace's join sums them.
	cancel *fault.Flag
	inj    *chaos.Injector
	beats  []beatSlot
	// seedMu serializes the quiescence-time seeding of new components so
	// that exactly one root is created per uncovered component.
	seedMu sync.Mutex

	// rec is the unified observability layer: all run statistics —
	// per-worker work counts, steal traffic, failed claims, seeded
	// components — live in its padded per-worker slots, and Stats is
	// derived from its totals after the run. ows caches one handle per
	// worker: Recorder.Worker escapes its handle to the heap on every
	// call, so the handles are resolved once, at construction, and
	// shared by the worker states and the stats derivation.
	rec *obs.Recorder
	ows []*obs.Worker

	// stubRand and seeds are the stub step's RNG and seed buffer
	// (capacity StubSteps+1, the walk's maximum yield), reused across
	// pooled runs.
	stubRand xrand.Rand
	seeds    []graph.VID

	// image is the parent array every run starts from when the run
	// pre-claims pendant trees and the graph has some: each pendant vertex
	// under its neighbour toward the 2-core, unclaimed everywhere else.
	// pendant counts its pre-claimed vertices. Both stay zero on a graph
	// without pendant vertices, whose runs fill the sentinel instead.
	image   []graph.VID
	pendant int
}

// claim attempts to acquire w with parent p (graph.None for a root) by a
// CAS directly on the fused parent array. The caller owns progress
// counting: hot paths batch it, cold paths use claimSeq.
func (t *traversal) claim(w, p graph.VID) bool {
	return atomic.CompareAndSwapInt32(&t.parent[w], unclaimed, p)
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

// run executes both steps of the algorithm on g with concurrent
// workers: a Workspace sized for one run, run once with o's seed and
// closed, so its team has exited when run returns.
func run(g *graph.Graph, o Options) ([]graph.VID, Stats, error) {
	w, err := newWorkspace(g, o, false)
	if err != nil {
		return nil, Stats{}, err
	}
	defer w.Close()
	parent, st, err := w.Run(o.Seed)
	return parent, *st, err
}

// recoverWorker records an isolated worker panic: per-worker counter and
// trace event (written on the panicking worker's own goroutine, keeping
// the recorder's single-writer contract), then the run flag trips with
// the structured PanicError so the teammates drain at their next poll.
func (t *traversal) recoverWorker(tid int, r any) {
	ow := t.ows[tid]
	ow.Incr(obs.PanicsRecovered)
	ow.Trace(obs.EvPanic, 0, 0)
	t.cancel.TripPanic(&fault.PanicError{
		Worker: tid, Value: r, Stack: debug.Stack(),
	})
	t.wakeAll()
}

// wakeOne hands one parked teammate a wake token, if the channel has
// room; a full channel already wakes every processor that parks.
func (t *traversal) wakeOne() {
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// wakeAll wakes the whole team: one token per worker.
func (t *traversal) wakeAll() {
	for i := 0; i < t.o.NumProcs; i++ {
		t.wakeOne()
	}
}

// park blocks an idle worker until a wake token arrives or the park
// timeout runs out. The timer is the worker's own and reused across
// parks and runs. go.mod's go 1.22 keeps the buffered timer
// channel, so a Stop that loses the race to the timer leaves a stale
// tick behind; the non-blocking drain removes it (and is a no-op under
// the synchronous timers of later language versions). A tick that
// still slips past the drain only ends the next park early, which the
// caller treats like any other wake: it rescans and parks again.
func (t *traversal) park(ws *workerState) {
	ws.timer.Reset(t.parkTimeout)
	select {
	case <-t.wake:
		if !ws.timer.Stop() {
			select {
			case <-ws.timer.C:
			default:
			}
		}
	case <-ws.timer.C:
	}
}

// workerState is one worker's reusable hot-loop state: the per-stream
// RNG, the drain/child/steal buffers, the cached observability handles,
// and the unpublished progress batch. A Workspace keeps p of them
// (padded, see workerSlot), built by newWorkerState and rearmed per run
// by resetWorkerState, which is what makes a pooled session's steady
// state allocation-free.
type workerState struct {
	r     xrand.Rand // per-stream RNG, reseeded per run
	probe *smpmodel.Probe
	// ow is the traversal's cached recorder handle for this worker.
	ow *obs.Worker
	// Hot-path counters batch into lc and flush at chunk boundaries;
	// per-vertex atomic stores would put a fence (XCHG) on the claim loop.
	lc obs.Local
	// chunk receives the owner-side batched drain (its length is the
	// run's ChunkSize); out accumulates the children claimed while
	// processing the chunk, flushed with a single PushBatch; stealBuf
	// receives steal loot. Together chunk and out turn ~2 lock
	// operations per vertex into ~2 per chunk. Appends grow out and
	// stealBuf past one-shot sizes; pooled ones never outgrow their
	// provision (newWorkerState).
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
	// sink accumulates the values touch loads, so they are not dead
	// loads; nothing reads it.
	sink uint32
	// timer times out this worker's idle parks. Created stopped by
	// newWorkerState and reused.
	timer *time.Timer
}

// newWorkerState allocates one worker's buffers and its park timer,
// created stopped so that no run allocates one. qcap is the team's queue
// capacity (newTraversal's): 0 gives one-shot sizes, which the hot
// loop's appends grow on demand; NewWorkspace's provision of twice the
// vertex count sizes the child buffer for the team's whole frontier and
// the steal buffer for half a victim's live queue, so no run grows them.
func newWorkerState(chunk, qcap int) workerState {
	ws := workerState{
		chunk:    make([]int32, chunk),
		out:      make([]int32, 0, max(4*chunk, qcap/2)),
		stealBuf: make([]int32, 0, max(qcap/4+1, 256)),
		timer:    time.NewTimer(time.Hour),
	}
	ws.timer.Stop()
	return ws
}

// resetWorkerState rearms ws for one run of t's traversal: the RNG is
// reseeded to the exact stream a fresh xrand.New(seed).Split(tid+1)
// would produce, and the counter and progress batches are zeroed. The
// recorder handle is the traversal's cached one, which lives as long as
// the recorder. Every user of the buffers truncates them first.
func (t *traversal) resetWorkerState(tid int, ws *workerState) {
	var base xrand.Rand
	base.Reseed(t.o.Seed)
	ws.r.ReseedSplit(&base, uint64(tid)+1)
	ws.probe = t.o.Model.Probe(tid)
	ws.ow = t.ows[tid]
	ws.lc = obs.Local{}
	ws.pend = 0
}

// flushVisited publishes ws's progress batch to the shared counter and
// wakes the team when the batch completes the forest, so parked
// teammates exit at once instead of at their park timeout.
func (t *traversal) flushVisited(ws *workerState) {
	if ws.pend != 0 {
		if t.visited.Add(ws.pend) == int64(t.n) {
			t.wakeAll()
		}
		ws.pend = 0
	}
}

// finishWorker drains ws's batches after its loop exits (normally or by
// panic unwinding): progress, then counters.
func (t *traversal) finishWorker(ws *workerState) {
	t.flushVisited(ws)
	ws.lc.FlushTo(ws.ow)
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
		t.inj.Visit(tid, chaos.PointDrain)
		nPop, qrem := myQ.PopBatchLen(ws.chunk)
		if nPop > 0 {
			// The progress heartbeat rides the chunk boundary the loop
			// already pays for, and only fires when the drain obtained
			// work — a team spinning idle reads as stalled.
			t.beat(tid)
			ws.probe.NonContig(2) // one locked chunk dequeue
			ws.lc.Incr(obs.ChunkDrains)
			ws.lc.Add(obs.DrainedVertices, int64(nPop))
			ws.lc.Incr(obs.DrainHistBucket(nPop))
			ws.out = ws.out[:0]
			ws.sink += t.touch(ws.chunk[:nPop])
			for _, v := range ws.chunk[:nPop] {
				t.process(tid, graph.VID(v), ws.probe, &ws.out, &ws.lc, &ws.pend)
			}
			if len(ws.out) > 0 {
				myQ.PushBatch(ws.out)
				ws.probe.NonContig(2 + int64(len(ws.out))) // one locked batch enqueue
			}
			t.flushVisited(ws)
			// The children just flushed are queue depth too.
			t.wakeIfStealable(qrem + len(ws.out))
			fruitless = 0
			processed += nPop
			// The yield/flush cadence is counted in vertices, not drains:
			// a drain of a shallow queue can be a single vertex, and
			// yielding per drain made serial-dependency inputs yield after
			// every vertex — a 3x wall-clock penalty on the chain under
			// oversubscription.
			if processed >= yieldEvery {
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
				t.beat(tid)
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
				t.wakeIfStealable(myQ.Len())
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

// wakeIfStealable sends one wake when a queue of the given depth is
// worth stealing from and someone is idle. It pairs with the sleeper's
// last look in idleOnce: the push that produced depth precedes the
// sleepers load here, and a sleeper's increment precedes its scan of
// the queues, so either this load sees the sleeper or the sleeper's
// scan sees the queue.
func (t *traversal) wakeIfStealable(depth int) {
	if depth >= t.minSteal && !t.o.NoSteal && t.sleepers.Load() > 0 {
		t.wakeOne()
	}
}

// touch loads each drained vertex's adjacency offset and the first slot
// of its neighbor list, and returns their sum for the caller's sink so
// the compiler keeps the loads. They are plain loads, so a chunk's
// offset and adjacency misses overlap one another instead of queueing
// behind each vertex's claim CASes (a locked CAS lets no later load pass
// it); process then finds both lines in cache. The model charges
// nothing here: process charges these accesses, and a cache hint has no
// term in the Helman-JáJá model. The touch stops at the adjacency
// heads: touching parent entries as well lost on the torus (DESIGN.md
// §8, "The touch pass"). A degree-0 vertex at the end of the arena has
// an offset one past the end of Adj, hence the guard.
func (t *traversal) touch(chunk []int32) uint32 {
	offs, adj := t.cg.Offs, t.cg.Adj
	var sum uint32
	for _, v := range chunk {
		o := offs[v]
		if o < uint32(len(adj)) {
			sum += adj[o]
		}
	}
	return sum
}

// process scans v's neighbors, claiming the unvisited ones (Algorithm 1,
// lines 2.2-2.7). Claimed children are appended to out (the caller's
// chunk-local buffer, flushed with one PushBatch) and counted in pend
// (the caller's unpublished progress). A chaos stall injected here
// widens the window between the parent[w] load and the claim CAS — the
// deterministic stand-in for a CAS retry storm.
func (t *traversal) process(tid int, v graph.VID, probe *smpmodel.Probe,
	out *[]int32, lc *obs.Local, pend *int64) {
	t.inj.Visit(tid, chaos.PointClaim)
	lc.Incr(obs.VerticesClaimed)
	// The 4-byte offset load is charged at the compact rate; the
	// adjacency stream is charged as plain Contig, because graph.Graph's
	// ids are 4 bytes wide too.
	nb := t.cg.Neighbors32(v)
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
		if atomic.LoadInt32(&t.parent[w]) != unclaimed {
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

// spanMax returns the traversal's dependency span: the maximum
// claim-completion time in non-contiguous units, which finish reports
// to the cost model (0 without one). It runs after the final join and
// before the fallback, so the claimed vertices are exactly those whose
// parent is not unclaimed.
func (t *traversal) spanMax() int64 {
	if t.span == nil {
		return 0
	}
	var max int64
	for v, p := range t.parent {
		if p == unclaimed {
			continue
		}
		if s := t.span[v] + procCostNC(t.cg.Degree(graph.VID(v))); s > max {
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
// process directly.
func (t *traversal) trySteal(tid int, r *xrand.Rand, myQ *wsq.StealHalf,
	stealBuf *[]int32, probe *smpmodel.Probe, ow *obs.Worker) (graph.VID, bool) {
	p := t.o.NumProcs
	if p == 1 {
		return 0, false
	}
	t.inj.Visit(tid, chaos.PointSteal)
	ow.Incr(obs.StealAttempts)
	// A vetoed attempt fails before scanning any victim — the injected
	// delayed/failed-steal fault; the thief falls through to the idle
	// protocol and retries, so no work is lost, only deferred.
	if t.inj.VetoSteal(tid) {
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
// adjacent to a processed vertex is itself colored, and every colored
// vertex has been processed except the pre-claimed pendant ones, which
// are never processed. A component's vertices outside its pendant trees
// form a connected set (its 2-core, or the whole component when that is
// a tree), so each such set is wholly colored or wholly uncolored, and
// the uncolored vertices form whole components minus their pendant
// trees. The elected leader (the processor that observes sleepers == p)
// may therefore sweep them: claim an uncolored vertex as a fresh root,
// cover its component, repeat — that is how disconnected inputs become
// spanning forests with exactly one root per component, the pendant
// trees hanging under their 2-core.
func (t *traversal) idleOnce(tid int, myQ *wsq.StealHalf, fruitless int, ws *workerState) bool {
	t.inj.Visit(tid, chaos.PointIdle)
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
			t.wakeAll()
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
		return true
	}
	// Last look before parking, after the sleepers increment: a queue
	// that became stealable before a pusher could see this sleeper is
	// seen here instead (see wakeIfStealable).
	if !t.o.NoSteal {
		for _, q := range t.queues {
			if q.Len() >= t.minSteal {
				return true
			}
		}
	}
	t.park(ws)
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
// A component whose frontier reaches sweepChunk is big: the
// frontier goes onto the leader's queue in one PushBatch, the sweep
// ends, and the team steals it; the next root waits for the next
// quiescence. The leader owns the cursor for the whole sweep — one
// load, a local scan, one store; runs of claimed positions are skipped
// in a tight inner loop. Every sweepChunk steps (cursor
// positions plus processed vertices) it polls for a stop, runs the test
// hook and the drain chaos point, and beats its heartbeat: cancel latency
// stays at one chunk, a long sweep does not read as a stall, and the SV
// fallback can take over mid-sweep (it completes any partial forest, so
// the abandoned frontier needs no repair).
func (t *traversal) sweep(tid int, myQ *wsq.StealHalf, ws *workerState) {
	i, n := t.cursor.Load(), int64(t.n)
	fr, head := ws.out[:0], 0
	for steps := sweepChunk; ; steps++ {
		if steps >= sweepChunk {
			steps = 0
			if t.abort.Load() || t.cancel.Tripped() {
				break
			}
			if h := t.o.testHook; h != nil {
				h(tid)
			}
			t.inj.Visit(tid, chaos.PointDrain)
			t.beat(tid)
		}
		if head < len(fr) {
			v := fr[head]
			head++
			t.process(tid, graph.VID(v), ws.probe, &fr, &ws.lc, &ws.pend)
			if live := len(fr) - head; live >= sweepChunk {
				myQ.PushBatch(fr[head:])
				ws.probe.NonContig(2 + int64(live)) // one locked batch enqueue
				t.wakeAll()
				break
			}
			if head >= sweepChunk {
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
		// Skip claimed positions in a tight loop. Each position is one
		// step, so the scan stops where the next poll is due; the for
		// statement's steps++ counts the last position inspected.
		j, end := i, min(n, i+int64(sweepChunk-steps))
		for j < end && atomic.LoadInt32(&t.parent[j]) != unclaimed {
			j++
		}
		if j == end {
			ws.probe.NonContig(j - i) // cursor inspections of parent[]
			steps += int(j-i) - 1
			i = j
			continue
		}
		ws.probe.NonContig(j - i + 1)
		steps += int(j - i)
		v := graph.VID(j)
		i = j + 1
		if !t.claim(v, graph.None) {
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

// nextUncolored advances the shared cursor to the next uncolored
// vertex. Only the lockstep driver uses it: the
// model deliberately keeps one seed per quiescence round, so its counts
// are those of the paper's protocol, not of the concurrent sweep.
func (t *traversal) nextUncolored(probe *smpmodel.Probe) (graph.VID, bool) {
	for {
		i := t.cursor.Add(1) - 1
		if i >= int64(t.n) {
			return 0, false
		}
		probe.NonContig(1)
		if atomic.LoadInt32(&t.parent[i]) == unclaimed {
			return graph.VID(i), true
		}
	}
}

// fallback completes a partially grown forest with Shiloach-Vishkin, the
// paper's remedy for pathological low-connectivity inputs: the grown
// subtrees are contracted to super-vertices (their roots) and SV grafts
// the rest. Vertices the aborted traversal never claimed become roots of
// their own. A pre-claimed pendant vertex resolves through its parents
// to a 2-core vertex, which is either claimed or becomes such a root, so
// pendant trees need no case of their own. It returns the completed
// forest's root count: the contracted forest's roots minus one per
// graft.
func (t *traversal) fallback() (spansv.Stats, int, error) {
	n := t.n
	// Resolve every claimed vertex to the root of its subtree, path-
	// compressing as we go; unclaimed vertices are their own stars.
	d := make([]int32, n)
	rootOf := make([]graph.VID, n)
	roots := 0
	for v := 0; v < n; v++ {
		rootOf[v] = graph.None
		if t.parent[v] == unclaimed {
			t.parent[v] = graph.None
		}
		if t.parent[v] == graph.None {
			roots++
		}
	}
	var path []graph.VID
	for v := 0; v < n; v++ {
		if rootOf[v] != graph.None {
			continue
		}
		path = path[:0]
		cur := graph.VID(v)
		for rootOf[cur] == graph.None && t.parent[cur] != graph.None {
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
		return svStats, 0, fmt.Errorf("core: SV fallback: %w", err)
	}
	// Attach each graft edge: the graft (v,w) merged root(v)'s tree under
	// w's component. Re-root v's subtree so that v becomes its root, then
	// point v at w. Total re-rooting work is bounded by the contracted
	// forest size.
	for _, e := range edges {
		rerootAt(t.parent, e.U)
		t.parent[e.U] = e.V
	}
	return svStats, roots - len(edges), nil
}

// rerootAt reverses the parent pointers on the path from v to its root,
// making v the root of its tree.
func rerootAt(parent []graph.VID, v graph.VID) {
	prev := graph.None
	cur := v
	for cur != graph.None {
		next := parent[cur]
		parent[cur] = prev
		prev = cur
		cur = next
	}
}
