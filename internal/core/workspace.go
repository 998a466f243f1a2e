package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
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
// through a latch: the last worker out sends on a one-slot channel that
// the coordinator, Run's caller, waits on. With a stall budget the
// coordinator watches the run's progress from that same wait, so a
// workspace holds exactly its p workers. Every buffer the algorithm
// needs (the parent array, the work-stealing queues, the per-worker
// drain/child/steal buffers, the observability recorder, the seed list)
// is allocated at construction too.
//
// A Workspace from NewWorkspace is the serving fast path: its buffers
// are provisioned for the worst case, so Run executes with zero
// steady-state heap allocations — the property the serving layer's
// pooled sessions are built on. SpanningForest runs the same driver once
// on a workspace sized for one run and closes it.
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
// Close releases the parked team and returns once every worker has
// exited; it is the only way the goroutines exit, so callers must Close
// workspaces they drop.
type Workspace struct {
	t *traversal
	// wakes[tid] carries worker tid's run-start signal; closing it
	// retires the worker.
	wakes []chan struct{}
	// The join latch: left counts the workers still in the run, and the
	// last one out sends on done (capacity 1), where the coordinator
	// waits. timer paces the coordinator's progress samples; nil without
	// a stall budget.
	left  atomic.Int32
	done  chan struct{}
	timer *time.Timer
	wss   []workerSlot
	wg    sync.WaitGroup

	stats Stats
	// dirty reports that a run has used the traversal since
	// construction, which leaves it armed for its first run only.
	dirty  bool
	closed bool
}

// NewWorkspace builds a pooled workspace for g with the given run
// options: it allocates every buffer, peels the pendant trees, and
// spawns the parked team and cycles it once through the join. It runs
// no traversal. opt.Seed is ignored (each Run takes
// its own); opt.Cancel must be nil — the workspace owns its cancel flag,
// exposed through Flag.
// Options that allocate per run or change the memory shape (Model, Obs,
// Chaos, Deg2Eliminate, FallbackThreshold) are rejected: a pooled
// workspace is the serving fast path, not the experiment harness, and a
// triggered fallback allocates.
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
	case opt.FallbackThreshold > 0:
		return nil, errors.New("core: Workspace does not support a FallbackThreshold")
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
	w := &Workspace{t: t, wss: make([]workerSlot, p), done: make(chan struct{}, 1)}
	for tid := range w.wss {
		w.wss[tid].workerState = newWorkerState(o.ChunkSize, qcap)
	}
	w.stats.VerticesPerProc = make([]int64, p)
	w.stats.EdgesPerProc = make([]int64, p)
	if o.StallBudget > 0 {
		w.timer = time.NewTimer(time.Hour)
		w.timer.Stop()
	}

	// The parked team: one goroutine per worker, created once, woken per
	// run and joined through the latch. They exit only when Close closes
	// the wake channels. A pooled team first cycles once with no run:
	// each worker leaves through the latch and then parks on its wake
	// channel. That pays the runtime's one-time costs behind those waits
	// at construction, so the first request is allocation-free about as
	// often as after a throwaway run, for a fraction of its cost. The
	// cycle samples no progress, and the recorder is reset after it, so
	// it counts only runs.
	w.wakes = make([]chan struct{}, p)
	w.left.Store(int32(p))
	for tid := range w.wakes {
		wake := make(chan struct{})
		w.wakes[tid] = wake
		w.wg.Add(1)
		go func(tid int) {
			defer w.wg.Done()
			if pooled {
				w.leave(tid)
			}
			for range wake {
				w.runOne(tid)
			}
		}(tid)
	}
	if pooled {
		<-w.done
		t.rec.Reset()
	}
	return w, nil
}

// runOne executes one parked worker's share of one run. The worker
// leaves through the latch whatever happens in its body: a panic is
// isolated here (recorded, the run's flag tripped so the teammates drain
// at their next poll), and the coordinator never waits on a dead worker.
func (w *Workspace) runOne(tid int) {
	defer w.leave(tid)
	defer func() {
		if r := recover(); r != nil {
			w.t.recoverWorker(tid, r)
		}
	}()
	w.t.workerLoop(tid, &w.wss[tid].workerState)
}

// leave is worker tid's arrival at the join: it counts the worker's
// barrier wait, and the last worker out hands the run back to the
// coordinator. The atomic count orders every worker's writes before the
// last one's send, so the coordinator reads a finished run.
func (w *Workspace) leave(tid int) {
	w.t.ows[tid].Incr(obs.BarrierWaits)
	if w.left.Add(-1) == 0 {
		w.done <- struct{}{}
	}
}

// join waits for the last worker to leave the run. With a stall budget
// it samples the workers' heartbeat sum every quarter budget (at least
// 1 ms) on the workspace's one timer, and once the sum has not moved
// for a whole budget it trips the run's flag with fault.CauseStalled:
// the workers drain as after a cancellation, and the join still waits
// for the last of them, so no trip can land after Run returns. The
// clock is read at each sample rather than taken from the tick, whose
// value may be a stale one left by an earlier run.
func (w *Workspace) join() {
	if w.timer == nil {
		<-w.done
		return
	}
	budget := w.t.o.StallBudget
	period := max(budget/4, time.Millisecond)
	last, progress := w.t.beatSum(), time.Now()
	w.timer.Reset(period)
	for {
		select {
		case <-w.done:
			// As in park: go.mod's go 1.22 keeps the buffered timer
			// channel, so a Stop that loses the race leaves a tick to drain.
			if !w.timer.Stop() {
				select {
				case <-w.timer.C:
				default:
				}
			}
			return
		case <-w.timer.C:
		}
		now := time.Now()
		if sum := w.t.beatSum(); sum != last {
			last, progress = sum, now
		} else if now.Sub(progress) >= budget {
			w.t.cancel.Trip(fault.CauseStalled)
			<-w.done
			return
		}
		w.timer.Reset(period)
	}
}

// beatSlot is one worker's heartbeat, padded to its own cache line so
// that beats never false-share.
type beatSlot struct {
	n atomic.Int64
	_ [56]byte
}

// beat records that worker tid advanced: it drained a chunk, landed a
// steal or swept on. The slots exist only under a stall budget; the
// slot is single-writer, so a load and a store replace a contended
// read-modify-write.
func (t *traversal) beat(tid int) {
	if t.beats != nil {
		s := &t.beats[tid].n
		s.Store(s.Load() + 1)
	}
}

// beatSum folds the heartbeats. Every slot only grows, so an unchanged
// sum means no worker advanced.
func (t *traversal) beatSum() int64 {
	var sum int64
	for i := range t.beats {
		sum += t.beats[i].n.Load()
	}
	return sum
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
// them before releasing the workspace. Run never resets the cancel flag:
// the flag's owner does.
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

	// Step 2: wake the parked team and wait at the join, unless the
	// flag tripped before the traversal started (e.g. an already-expired
	// deadline). The stall budget is watched only from the join: the stub
	// walk runs on this goroutine and never beats.
	if !t.cancel.Tripped() {
		for tid := range w.wss {
			t.resetWorkerState(tid, &w.wss[tid].workerState)
		}
		w.left.Store(int32(len(w.wakes)))
		for _, wake := range w.wakes {
			wake <- struct{}{}
		}
		w.join()
		t.joined()
	}
	parent, err := t.finish(&w.stats)
	return parent, &w.stats, err
}

// Close retires the parked team and marks the workspace unusable; it
// returns once every worker has exited. It must not race a Run.
// Idempotent.
func (w *Workspace) Close() {
	if w.closed {
		return
	}
	w.closed = true
	for _, wake := range w.wakes {
		close(wake)
	}
	w.wg.Wait()
}
