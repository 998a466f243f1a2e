package core

import (
	"errors"
	"fmt"
	"sync"
	"unsafe"

	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/par"
)

// workerSlot pads one worker's state to a multiple of two cache lines,
// so that neighboring workers in Workspace.wss never share a line or an
// adjacent-line prefetch pair (obs pads its counter slots the same way).
// Unpadded, whether two workers' hot fields collide depends on
// workerState's size: on a 2-vCPU x86 host, pooled p = 2 runs on a 2^20
// torus took 1.7 times as long with a 400-byte workerState as with 408
// or 512 bytes. The pad leads: Go gives a struct that ends in a
// zero-length field one more word, so a trailing pad would break the
// multiple whenever workerState is one already.
type workerSlot struct {
	_ [(128 - unsafe.Sizeof(workerState{})%128) % 128]byte
	workerState
}

// ErrWorkspaceClosed is returned by Run after Close.
var ErrWorkspaceClosed = errors.New("core: Run on a closed Workspace")

// Workspace is the one concurrent driver of the algorithm: a team of
// worker goroutines spawned once at construction, parked between runs
// on their run-start channels, and joined at the end of each run
// through one reused sense-reversing barrier. Every buffer the algorithm
// needs (the parent array, the work-stealing queues, the per-worker
// drain/child/steal buffers, the observability recorder, the seed list)
// is allocated at construction too.
//
// A Workspace from NewWorkspace is the serving fast path: its buffers
// are provisioned for the worst case, so a warmed workspace executes Run
// with zero steady-state heap allocations — the property the serving
// layer's pooled sessions are built on. SpanningForest runs the same
// driver once on a workspace sized for one run and closes it.
//
// NewWorkspace also peels the graph's pendant trees once
// (graph.PendantTrees): their edges are in every spanning forest, so
// every Run starts with them already claimed, and the stub, the
// traversal and the quiescence sweep never touch them (Stats.Pendant
// counts them). Tree components are not peeled; they run as in a
// one-shot run. A graph with pendant vertices costs one more n-entry
// parent image; one without costs only the peel's degree scan.
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

	stats Stats
	// dirty reports that a run has used the traversal since
	// construction, which leaves it armed for its first run only.
	dirty  bool
	closed bool
}

// NewWorkspace builds a pooled workspace for g with the given run
// options. opt.Seed is ignored (each Run takes its own); opt.Cancel must
// be nil — the workspace owns its cancel flag, exposed through Flag.
// Options that allocate per run or change the memory shape (Model, Obs,
// Chaos, Deg2Eliminate) are rejected: a pooled workspace is the serving
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
	o.pendantTrim = true
	return newWorkspace(g, o, true)
}

// newWorkspace builds a workspace for g under o (withDefaults already
// applied), accepting every option. pooled provisions the queues and
// worker buffers so that no run grows them; otherwise they take a
// one-shot run's growable sizes (newTraversal, newWorkerState).
func newWorkspace(g *graph.Graph, o Options, pooled bool) (*Workspace, error) {
	qcap := 0
	if pooled {
		// Each queue is provisioned for the whole vertex count, the bound
		// on a traversal's total frontier. The steal-half ring doubles when
		// more than half its buffer is live, so it is allocated at twice
		// that, and no run ever grows a queue.
		qcap = 2 * max(g.NumVertices(), 16)
	}
	t, err := newTraversal(g, o, qcap)
	if err != nil {
		return nil, err
	}
	p := o.NumProcs
	w := &Workspace{t: t, wss: make([]workerSlot, p)}
	for tid := range w.wss {
		w.wss[tid].workerState = newWorkerState(o.ChunkSize, qcap)
	}
	w.stats.VerticesPerProc = make([]int64, p)
	w.stats.EdgesPerProc = make([]int64, p)

	// The parked team: one goroutine per worker, created once, woken per
	// run and joined through the reused barrier. They exit only when
	// Close closes the wake channels.
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

// runOne executes one parked worker's share of one run. The worker
// reaches the join barrier whatever happens in its body: a panic is
// isolated here (recorded, the run's flag tripped so the teammates drain
// at their next poll), and the coordinator never waits on a dead worker.
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

// run executes one run with the given seed, arming the watchdog when
// watch is set. It never resets the cancel flag: the flag's owner does.
func (w *Workspace) run(seed uint64, watch bool) ([]graph.VID, *Stats, error) {
	if w.closed {
		return nil, nil, ErrWorkspaceClosed
	}
	t := w.t

	// Arm the shared state. Everything below is written by this
	// goroutine before the wake sends, which happen-before the workers'
	// reads. A fresh traversal is armed already, so a one-shot run fills
	// its parent array once and leaves a caller's recorder as it was.
	if w.dirty {
		t.rearm()
	}
	w.dirty = true
	t.o.Seed = seed
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
	// (e.g. an already-expired deadline). The watchdog is armed only
	// around the traversal: the stub walk runs on this goroutine and
	// never beats. It disarms synchronously on every exit path, so the
	// next Run's flag Reset can never race a late stall trip; Arm/Disarm
	// only write the armed run under the watchdog's mutex, so the steady
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
		// The coordinator is the extra participant. The join is the run's
		// second barrier after the stub's, the paper's B = 2, and gives
		// the work-stealing path per-worker barrier_waits like the SV
		// family.
		w.bar.Wait(len(w.wakes))
		t.o.Model.AddBarriers(1)
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
