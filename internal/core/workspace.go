package core

import (
	"errors"
	"fmt"
	"sync"
	"time"
	"unsafe"

	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/par"
)

// workerSlot pads one pooled worker's state to a multiple of two cache
// lines, so that neighboring workers in Workspace.wss never share a line
// or an adjacent-line prefetch pair (obs pads its counter slots the same
// way). Unpadded, whether two workers' hot fields collide depends on
// workerState's size: on a 2-vCPU x86 host, pooled p = 2 runs on a
// 2^20 torus took 1.7 times as long with a 400-byte workerState as with
// 408 or 512 bytes. One-shot runs keep their workerState on each worker
// goroutine's own stack.
type workerSlot struct {
	workerState
	_ [(128 - unsafe.Sizeof(workerState{})%128) % 128]byte
}

// ErrWorkspaceClosed is returned by Run after Close.
var ErrWorkspaceClosed = errors.New("core: Run on a closed Workspace")

// Workspace is a reusable runtime for SpanningForest on one fixed graph:
// every buffer the algorithm needs (the parent array, the work-stealing
// queues, the per-worker drain/child/steal buffers, the observability
// recorder, the seed list) is allocated once at construction, and the
// worker goroutines are spawned once and parked between runs on their
// run-start channels, synchronizing each run's end through one reused
// sense-reversing barrier. A warmed workspace therefore executes Run
// with zero steady-state heap allocations — the property the serving
// layer's pooled sessions are built on.
//
// A Workspace is NOT safe for concurrent use: one Run at a time (the
// session pool enforces this by handing each workspace to one request).
// Close releases the parked team; it is the only way the goroutines
// exit, so callers must Close workspaces they drop.
type Workspace struct {
	t *traversal
	// wakes[tid] carries worker tid's run-start signal; closing it
	// retires the worker. bar joins the team (the coordinator is the
	// extra participant).
	wakes []chan struct{}
	bar   *par.Barrier
	wss   []workerSlot
	wg    sync.WaitGroup

	stats  Stats
	closed bool
}

// NewWorkspace builds a workspace for g with the given run options.
// opt.Seed is ignored (each Run takes its own); opt.Cancel must be nil —
// the workspace owns its cancel flag, exposed through Flag. Options that
// allocate per run or change the memory shape (Model, Obs, Chaos,
// Deg2Eliminate) are rejected: a workspace is the serving
// fast path, not the experiment harness.
func NewWorkspace(g *graph.Graph, opt Options) (*Workspace, error) {
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

	// Each queue is provisioned for the whole vertex count, the bound on
	// a traversal's total frontier. The steal-half ring doubles when more
	// than half its buffer is live, so it is allocated at twice that, and
	// no run ever grows a queue.
	qcap := max(g.NumVertices(), 16)
	t, err := newTraversal(g, o, 2*qcap)
	if err != nil {
		return nil, err
	}
	w := &Workspace{t: t}

	// Per-worker buffers, provisioned for the worst case so the hot loop
	// never grows them: the child buffer can receive every not-yet-claimed
	// vertex of a chunk's neighborhoods (bounded by the team's frontier),
	// a steal takes at most half a victim's live queue.
	p := o.NumProcs
	outCap := max(4*o.ChunkSize, qcap)
	stealCap := max(qcap/2+1, 256)
	w.wss = make([]workerSlot, p)
	for tid := range w.wss {
		ws := &w.wss[tid].workerState
		ws.chunk = make([]int32, o.ChunkSize)
		ws.out = make([]int32, 0, outCap)
		ws.stealBuf = make([]int32, 0, stealCap)
		// The park timer, created stopped so that no run ever allocates
		// one.
		ws.timer = time.NewTimer(time.Hour)
		ws.timer.Stop()
	}
	w.stats.VerticesPerProc = make([]int64, p)
	w.stats.EdgesPerProc = make([]int64, p)

	// The parked team: one goroutine per worker, created once, woken per
	// run and joined through the reused barrier. They exit only when
	// Close retires the wake channels.
	w.bar = par.NewBarrier(p + 1)
	w.bar.Observe(t.rec)
	w.wakes = make([]chan struct{}, p)
	for tid := range w.wakes {
		wake := make(chan struct{})
		w.wakes[tid] = wake
		w.wg.Add(1)
		go func(tid int) {
			defer w.wg.Done()
			for range wake {
				w.runOne(tid)
			}
		}(tid)
	}
	return w, nil
}

// runOne executes one parked worker's share of one run, with the same
// isolation contract as a one-shot run: the worker reaches the join
// barrier whatever happens in its body, and a panic trips the run flag
// so the teammates drain at their next poll.
func (w *Workspace) runOne(tid int) {
	defer w.bar.Wait(tid)
	defer func() {
		if r := recover(); r != nil {
			w.t.recoverWorker(tid, r)
		}
	}()
	w.t.workerLoop(tid, &w.wss[tid].workerState)
}

// Flag returns the workspace's cancel flag. The reuse contract: callers
// that arm it (fault.Watch, TripContext) must Reset it before the next
// Run — Run itself never resets the flag, so a trip that lands between
// the caller's Watch and the run's first poll is never lost.
func (w *Workspace) Flag() *fault.Flag { return w.t.cancel }

// NumProcs returns the workspace's worker count.
func (w *Workspace) NumProcs() int { return w.t.o.NumProcs }

// Graph returns the graph the workspace was built for.
func (w *Workspace) Graph() *graph.Graph { return w.t.g }

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
	return w.run(seed, true)
}

// Warmup is Run with the stall watchdog disarmed. Warmups are throwaway
// construction runs that absorb one-time costs, so the stall budget,
// which is sized for served runs, does not judge them; cancellation and
// panic isolation still apply. Only the error is returned.
func (w *Workspace) Warmup(seed uint64) error {
	_, _, err := w.run(seed, false)
	return err
}

// run executes one pooled run, arming the watchdog when watch is set.
func (w *Workspace) run(seed uint64, watch bool) ([]graph.VID, *Stats, error) {
	if w.closed {
		return nil, nil, ErrWorkspaceClosed
	}
	t := w.t

	// Rearm the shared state. Everything below is written by this
	// goroutine before the wake sends, which happen-before the workers'
	// reads.
	t.rearm(seed)
	t.rec.Reset()
	vp, ep := w.stats.VerticesPerProc, w.stats.EdgesPerProc
	clear(vp)
	clear(ep)
	w.stats = Stats{VerticesPerProc: vp, EdgesPerProc: ep}

	if t.n == 0 {
		return t.parent, &w.stats, nil
	}
	w.stats.StubSize = t.stub()

	// Step 2: wake the parked team and join it through the reused
	// barrier, unless the flag tripped before the traversal started
	// (e.g. an already-expired deadline). The parked watchdog rearms
	// here and disarms synchronously on every exit path, so the next
	// Run's flag Reset can never race a late stall trip; Arm/Disarm only
	// write the armed run under the watchdog's mutex, so the steady
	// state stays allocation-free and sends the monitor nothing.
	if !t.cancel.Tripped() {
		if watch && t.wd != nil {
			t.wd.Arm(t.cancel, t.o.StallBudget)
			defer t.wd.Disarm()
		}
		for tid := range w.wss {
			t.resetWorkerState(tid, &w.wss[tid].workerState)
		}
		for _, wake := range w.wakes {
			wake <- struct{}{}
		}
		w.bar.Wait(len(w.wakes)) // the coordinator is the extra participant
	}
	parent, err := t.finish(&w.stats)
	return parent, &w.stats, err
}

// Close retires the parked team and marks the workspace unusable. It
// must not race a Run. Idempotent.
func (w *Workspace) Close() {
	if w.closed {
		return
	}
	w.closed = true
	for _, wake := range w.wakes {
		close(wake)
	}
	w.wg.Wait()
	w.t.wd.Close()
}
