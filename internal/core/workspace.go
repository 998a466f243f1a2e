package core

import (
	"errors"
	"fmt"
	"sync"

	"spantree/internal/barrier"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/sched"
	"spantree/internal/spanseq"
	"spantree/internal/wsq"
	"spantree/internal/xrand"
)

// WorkspaceOptions sizes the provisioned buffers of a Workspace.
type WorkspaceOptions struct {
	// QueueCapacity is the per-queue frontier the workspace provisions
	// for, in vertices. The steal-half ring doubles when more than half
	// its buffer is live, so each queue's buffer is allocated at twice
	// this value — with the default (0, meaning the team range's vertex
	// count) no run can ever grow a queue, because the total frontier of
	// a team's traversal is bounded by its range. A smaller value trades
	// that guarantee for memory: a run whose frontier outgrows the
	// provision still completes correctly, it just reallocates (and the
	// session's steady state is no longer allocation-free).
	QueueCapacity int
}

// ErrWorkspaceClosed is returned by Run after Close.
var ErrWorkspaceClosed = errors.New("core: Run on a closed Workspace")

// parkedWorker is one pooled worker goroutine's identity: which shard
// team it belongs to, its local tid there, and its slot on its wave's
// join barrier. wake carries the run-start signal; close retires it.
type parkedWorker struct {
	wake  chan struct{}
	shard int
	tid   int
	bslot int
}

// Workspace is a reusable runtime for SpanningForest on one fixed graph:
// every buffer the algorithm needs (the parent array, the work-stealing
// queues, the per-worker drain/child/steal buffers, the observability
// recorder, the seed list, the sharded engine's partition and stitch
// scratch) is allocated once at construction, and the worker goroutines
// are spawned once and parked between runs on the run-start channels,
// synchronizing each run's end through reused sense-reversing barriers
// (one per wave of the engine's shard schedule). A warmed workspace
// therefore executes Run with zero steady-state heap allocations — the
// property the serving layer's pooled sessions are built on — at any
// shard count.
//
// A Workspace is NOT safe for concurrent use: one Run at a time (the
// session pool enforces this by handing each workspace to one request).
// Close releases the parked team; it is the only way the goroutines
// exit, so callers must Close workspaces they drop.
type Workspace struct {
	e *engine
	// workers[wv] holds the parked goroutines of wave wv, joined through
	// bars[wv] (the coordinator is the extra participant).
	workers [][]parkedWorker
	bars    []*barrier.Sense
	wss     [][]workerState // [shard][local tid]
	// slotOW caches one recorder handle per global processor slot:
	// Recorder.Worker escapes its handle to the heap on every call, so
	// the handles are resolved once here and shared with the worker
	// states and the stats derivation.
	slotOW []*obs.Worker
	wg     sync.WaitGroup

	rootRand xrand.Rand
	seeds    []graph.VID
	stats    Stats
	closed   bool
}

// NewWorkspace builds a workspace for g with the given run options.
// opt.Seed is ignored (each Run takes its own); opt.Cancel must be nil —
// the workspace owns its cancel flag, exposed through Flag. Options that
// allocate per run or change the memory shape (Model, Obs, Chaos,
// Deg2Eliminate) are rejected: a workspace is the serving
// fast path, not the experiment harness. Shards is supported — the
// partition, the per-shard views and the stitch scratch are built once
// here, so sharded pooled runs stay allocation-free too.
func NewWorkspace(g *graph.Graph, opt Options, wopt WorkspaceOptions) (*Workspace, error) {
	if opt.NumProcs < 1 {
		return nil, fmt.Errorf("core: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	switch {
	case opt.Model != nil:
		return nil, errors.New("core: Workspace does not support a cost Model")
	case opt.Obs != nil:
		return nil, errors.New("core: Workspace does not support an external Obs recorder")
	case opt.Chaos != nil:
		return nil, errors.New("core: Workspace does not support chaos injection")
	case opt.Cancel != nil:
		return nil, errors.New("core: Workspace owns its cancel flag; use Flag instead of Options.Cancel")
	case opt.Deg2Eliminate:
		return nil, errors.New("core: Workspace does not support Deg2Eliminate")
	}
	o := opt.withDefaults()

	// The queue supplier runs once per worker during engine construction,
	// handed the owning team range's vertex count; twice the provisioned
	// frontier, see WorkspaceOptions.
	mk := func(ns int) *wsq.StealHalf {
		return wsq.NewStealHalf(2 * poolQueueCap(ns, wopt))
	}
	e, err := newEngine(g, o, mk)
	if err != nil {
		return nil, err
	}
	w := &Workspace{e: e}

	// Per-worker buffers, provisioned for the worst case so the hot loop
	// never grows them: the child buffer can receive every not-yet-claimed
	// vertex of a chunk's neighborhoods (bounded by the team's frontier),
	// a steal takes at most half a victim's live queue.
	p := o.NumProcs
	w.slotOW = make([]*obs.Worker, p)
	for slot := range w.slotOW {
		w.slotOW[slot] = e.rec.Worker(slot)
	}
	w.wss = make([][]workerState, len(e.ts))
	for si, t := range e.ts {
		qcap := poolQueueCap(t.n, wopt)
		ctrl := sched.NewController(t.o.ChunkPolicy, t.o.ChunkSize)
		ctrlMax := ctrl.Max()
		outCap := 4 * ctrlMax
		if outCap < qcap {
			outCap = qcap
		}
		stealCap := qcap/2 + 1
		if stealCap < 256 {
			stealCap = 256
		}
		w.wss[si] = make([]workerState, t.o.NumProcs)
		for tid := range w.wss[si] {
			ws := &w.wss[si][tid]
			ws.chunk = make([]int32, ctrlMax)
			ws.out = make([]int32, 0, outCap)
			ws.stealBuf = make([]int32, 0, stealCap)
			ws.ow = w.slotOW[t.tidBase+tid]
		}
	}
	w.seeds = make([]graph.VID, 0, o.StubSteps+1)
	w.stats.VerticesPerProc = make([]int64, p)
	w.stats.EdgesPerProc = make([]int64, p)

	// The parked team: one goroutine per worker slot of every shard,
	// created once, woken per run wave by wave, joined per wave through
	// its reused sense-reversing barrier (the coordinator is the extra
	// participant). They exit only when Close retires the wake channels.
	w.workers = make([][]parkedWorker, len(e.waves))
	w.bars = make([]*barrier.Sense, len(e.waves))
	for wv, wave := range e.waves {
		total := 0
		for _, si := range wave {
			total += e.ts[si].o.NumProcs
		}
		w.bars[wv] = barrier.NewSense(total + 1)
		w.bars[wv].Observe(e.rec)
		w.workers[wv] = make([]parkedWorker, 0, total)
		slot := 0
		for _, si := range wave {
			for tid := 0; tid < e.ts[si].o.NumProcs; tid++ {
				pw := parkedWorker{
					wake: make(chan struct{}), shard: si, tid: tid, bslot: slot,
				}
				w.workers[wv] = append(w.workers[wv], pw)
				slot++
				w.wg.Add(1)
				go func(wv int, pw parkedWorker) {
					defer w.wg.Done()
					for range pw.wake {
						w.runOne(wv, pw)
					}
				}(wv, pw)
			}
		}
	}
	return w, nil
}

// poolQueueCap resolves the provisioned per-queue frontier for a team
// covering ns vertices.
func poolQueueCap(ns int, wopt WorkspaceOptions) int {
	qcap := wopt.QueueCapacity
	if qcap <= 0 || qcap > ns {
		qcap = ns
	}
	if qcap < 16 {
		qcap = 16
	}
	return qcap
}

// runOne executes one parked worker's share of one run, with the same
// isolation contract as a one-shot run: the worker reaches its wave's
// join barrier whatever happens in its body, and a panic trips the run
// flag so the teammates drain at their next poll.
func (w *Workspace) runOne(wv int, pw parkedWorker) {
	defer w.bars[wv].Wait(pw.bslot)
	t := w.e.ts[pw.shard]
	defer func() {
		if r := recover(); r != nil {
			t.recoverWorker(pw.tid, r)
		}
	}()
	t.workerLoop(pw.tid, &w.wss[pw.shard][pw.tid])
}

// Flag returns the workspace's cancel flag. The reuse contract: callers
// that arm it (fault.Watch, TripContext) must Reset it before the next
// Run — Run itself never resets the flag, so a trip that lands between
// the caller's Watch and the run's first poll is never lost.
func (w *Workspace) Flag() *fault.Flag { return w.e.cancel }

// NumProcs returns the workspace's total worker budget.
func (w *Workspace) NumProcs() int { return w.e.o.NumProcs }

// Graph returns the graph the workspace was built for.
func (w *Workspace) Graph() *graph.Graph { return w.e.g }

// Run executes the two-step algorithm with the given seed on the pooled
// buffers. The returned parent slice and Stats are owned by the
// workspace and valid only until the next Run — callers consume or copy
// them before releasing the workspace.
//
// Cancellation follows the one-shot contract: if the workspace flag
// trips (via fault.Watch on Flag), Run drains and returns
// fault.ErrCanceled / fault.ErrDeadline with partial stats; an isolated
// worker panic degrades to the sequential BFS. In every case the
// workspace remains reusable.
func (w *Workspace) Run(seed uint64) ([]graph.VID, *Stats, error) {
	if w.closed {
		return nil, nil, ErrWorkspaceClosed
	}
	e := w.e

	// Rearm the shared state. Everything below is written by this
	// goroutine before the wake sends, which happen-before the workers'
	// reads.
	e.rearm(seed)
	e.rec.Reset()
	vp, ep := w.stats.VerticesPerProc, w.stats.EdgesPerProc
	clear(vp)
	clear(ep)
	w.stats = Stats{VerticesPerProc: vp, EdgesPerProc: ep}

	if len(e.parent) == 0 {
		return e.parent, &w.stats, nil
	}

	// Step 1: stub spanning trees on the calling goroutine, one walk per
	// shard, into the pooled seed buffer.
	for si, t := range e.ts {
		e.stubRandInto(&w.rootRand, seed, si)
		w.seeds = w.seeds[:0]
		if t.o.NoStub {
			s := t.lo + graph.VID(w.rootRand.Intn(t.n))
			t.claimSeq(s, graph.None)
			w.seeds = append(w.seeds, s)
		} else {
			w.seeds = stubSpanningTree(t, &w.rootRand, nil, w.seeds)
		}
		w.stats.StubSize += len(w.seeds)
		for i, s := range w.seeds {
			t.queues[i%t.o.NumProcs].Push(int32(s))
			e.rec.Trace(0, obs.EvSeed, int64(s), int64(t.tidBase+i%t.o.NumProcs))
		}
	}
	e.rec.AddBarrierEpisodes(1)
	e.rec.Trace(-1, obs.EvBarrier, 1, 0)
	if e.cancel.Tripped() {
		// Canceled before the traversal started (e.g. an already-expired
		// deadline): don't wake the team.
		return w.stop()
	}

	// Step 2: wake the parked teams wave by wave and join each wave
	// through its reused barrier. A trip ends the schedule at the wave
	// boundary; the unwoken later waves simply stay parked, which leaves
	// them in exactly the state the next Run's wakes expect. The parked
	// watchdog rearms here and disarms synchronously on every exit path,
	// so the next Run's flag Reset can never race a late stall trip;
	// Arm/Disarm exchange a value on a preallocated channel, keeping the
	// steady state allocation-free.
	if e.wd != nil {
		e.wd.Arm(e.cancel, e.o.StallBudget)
		defer e.wd.Disarm()
	}
	for si := range e.ts {
		t := e.ts[si]
		for tid := range w.wss[si] {
			t.resetWorkerState(tid, &w.wss[si][tid])
		}
	}
	for wv := range w.workers {
		for i := range w.workers[wv] {
			w.workers[wv][i].wake <- struct{}{}
		}
		w.bars[wv].Wait(len(w.workers[wv])) // the coordinator is the extra participant
		if e.cancel.Tripped() {
			break
		}
	}
	if e.cancel.Tripped() {
		return w.stop()
	}
	for _, t := range e.ts {
		t.normalizeRoots()
	}
	if e.part != nil {
		e.stitchShards(nil, w.slotOW[0])
	}
	e.finishStatsPooled(&w.stats, w.slotOW)

	if e.ts[0].abort.Load() {
		// Pathological case detected (single-team only: Shards > 1 rejects
		// FallbackThreshold): finish with Shiloach-Vishkin. The fallback
		// allocates — leaving the zero-alloc steady state is the right
		// trade on an input that defeated the traversal.
		w.stats.FallbackTriggered = true
		svStats, err := e.ts[0].fallback()
		w.stats.SVStats = svStats
		if err != nil {
			return nil, &w.stats, err
		}
	}
	return e.parent, &w.stats, nil
}

// stop resolves a pooled run whose flag tripped, mirroring stopOutcome
// without the allocating Snapshot: context stops return the typed error
// with partial stats; a worker panic degrades to the sequential BFS.
func (w *Workspace) stop() ([]graph.VID, *Stats, error) {
	e := w.e
	if e.cancel.Cause() == fault.CauseStalled {
		w.slotOW[0].Incr(obs.StallTrips)
	}
	e.finishStatsPooled(&w.stats, w.slotOW)
	if e.cancel.Cause() == fault.CausePanicked {
		w.stats.Panic = e.cancel.Panic()
		w.stats.DegradedToSeq = true
		return spanseq.BFS(e.g, nil), &w.stats, nil
	}
	return nil, &w.stats, e.cancel.Err()
}

// Close retires the parked teams and marks the workspace unusable. It
// must not race a Run. Idempotent.
func (w *Workspace) Close() {
	if w.closed {
		return
	}
	w.closed = true
	for _, wave := range w.workers {
		for i := range wave {
			close(wave[i].wake)
		}
	}
	w.wg.Wait()
	w.e.wd.Close()
}
