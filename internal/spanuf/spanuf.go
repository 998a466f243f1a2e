// Package spanuf implements the edge-centric CAS-hook spanning forest
// (gbbs-style parallel union-find), the complementary algorithm family
// to the paper's vertex-centric work-stealing traversal.
//
// Where the traversal grows trees outward from a stub — frontier queues,
// claim CASes, steals — this family runs one flat parallel loop over the
// edges: each arc path-compress-finds the roots of its endpoints, and if
// they differ, tries to CAS a hook into the smaller root's slot. The CAS
// is the tree-edge election: the winner links the smaller root under the
// larger and the arc becomes a tree edge; the loser re-finds and
// retries. There are no frontier queues and no barriers beyond init, so
// the sweep is embarrassingly parallel over m and indifferent to graph
// diameter — the traversal's pathological case.
//
// # The smaller-to-larger hooking rule and lock-free safety
//
// Roots are ordered by vertex index and a root may only be hooked under
// a LARGER root (link-by-index). Together with the compression guard
// (parent[i] is only overwritten by a strictly larger value), this keeps
// one invariant: every value ever stored into parent[i] of a non-root is
// strictly greater than i. Any walk up parent pointers therefore strictly
// increases the vertex index and must terminate within n steps — no
// cycles can form and no find can livelock, whatever the interleaving.
// Concurrent compression stores may race each other (a slot can briefly
// regress from one ancestor to a smaller one), but every stored value is
// a proper ancestor of the slot, so correctness and termination survive
// the benign race. Hooking larger-under-smaller instead would let two
// concurrent hooks form a parent cycle; the rule is what makes the sweep
// lock-free, not a heuristic.
//
// # Memory traffic
//
// The model contrast with the traversal: the traversal pays independent
// non-contiguous accesses (queue pushes, claim CASes) that the memory
// system can overlap; the union-find sweep pays pointer CHASES — each
// parent load's address depends on the previous load — plus one CAS per
// hook election. See the smpmodel CASOps/PointerChases classes and the
// abl-alg harness experiment for where the crossover falls.
package spanuf

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
	"spantree/internal/spansv"
)

// Options configures a run.
type Options struct {
	// NumProcs is the number of virtual processors p (>= 1).
	NumProcs int
	// Model, when non-nil, accumulates Helman-JáJá cost counters. The
	// sweep charges the CAS and pointer-chase classes; see the package
	// comment.
	Model *smpmodel.Model
	// Obs, when non-nil, receives per-worker counters (EdgesScanned,
	// HooksWon/HooksLost, UFFinds, CompressionWrites, the chunk-drain
	// set) and barrier waits from the team.
	Obs *obs.Recorder
	// Cancel is the run's cooperative stop flag (nil never trips). The
	// sweep polls it at every ForDynamic chunk boundary, so cancellation
	// latency is bounded by one chunk per worker (see par.ForDynamic).
	Cancel *fault.Flag
	// Chaos is the fault injector (nil, and compiled to no-ops in
	// default builds, injects nothing).
	Chaos *chaos.Injector
}

// Stats reports what a run did.
type Stats struct {
	// TreeEdges is the number of hook elections won == tree edges
	// selected (n minus the number of components).
	TreeEdges int
	// HooksLost counts CAS elections lost to another worker (each one
	// re-found its endpoints and retried).
	HooksLost int64
	// Finds is the number of union-find root lookups.
	Finds int64
	// CompressionWrites is the number of parent rewrites performed by
	// path compression during those finds.
	CompressionWrites int64
}

// counts is one worker's private tally, padded so neighboring workers'
// cells never share a cache line. Stats are derived from these instead
// of the obs recorder so un-instrumented runs still report.
type counts struct {
	won, lost, finds, compress int64
	_                          [4]int64
}

// hooker is one worker's handle on the shared union-find state: the
// parent array, the hook slots, and the worker's probe and tally. A
// hook slot holds the arc that hooked its root in the graft family's
// packed encoding (spansv.PackArc), or spansv.NoArc.
type hooker struct {
	uf    []int32
	hooks []int64
	probe *smpmodel.Probe
	ct    *counts
}

// find returns the root of i, compressing the path behind it. The walk
// terminates under any interleaving because parent values of non-roots
// are always strictly greater than their vertex (see the package
// comment); the compression guard (only overwrite with a larger value)
// preserves that invariant.
func (h *hooker) find(i int32) int32 {
	h.ct.finds++
	j := i
	var chases int64
	for {
		p := atomic.LoadInt32(&h.uf[j])
		if p == j {
			break
		}
		j = p
		chases++
	}
	// Compress the walked path onto the root. A concurrent find may have
	// compressed i past j already (tmp >= j) — stop rather than regress.
	var writes int64
	for {
		tmp := atomic.LoadInt32(&h.uf[i])
		if tmp >= j {
			break
		}
		atomic.StoreInt32(&h.uf[i], j)
		writes++
		i = tmp
	}
	h.probe.Chase(chases + 2*writes)
	h.ct.compress += writes
	return j
}

// hook processes one arc (v, w): find both roots, and while they
// differ, run the CAS election on the smaller root's hook slot. Returns
// true when this arc won a hook and became a tree edge.
func (h *hooker) hook(v, w graph.VID) bool {
	ru := h.find(int32(v))
	rw := h.find(int32(w))
	for ru != rw {
		if ru > rw {
			ru, rw = rw, ru
		}
		h.probe.CAS(1)
		if atomic.CompareAndSwapInt64(&h.hooks[ru], spansv.NoArc, spansv.PackArc(v, w)) {
			// The election is the linearization point; the link itself is
			// a plain store (only the CAS winner writes a root's parent,
			// and compression never touches roots).
			atomic.StoreInt32(&h.uf[ru], rw)
			h.ct.won++
			return true
		}
		h.ct.lost++
		// Lost the election: another arc hooked ru first. Its winner's
		// link store may still be in flight — wait for it, so the re-find
		// below makes progress instead of spinning on the same root.
		for atomic.LoadInt32(&h.uf[ru]) == ru {
			runtime.Gosched()
		}
		ru = h.find(int32(v))
		rw = h.find(int32(w))
	}
	return false
}

// SpanningForest runs the edge-centric CAS-hook sweep and returns the
// forest as a parent array plus run statistics.
func SpanningForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("spanuf: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	n := g.NumVertices()
	uf := make([]int32, n)
	hooks := make([]int64, n)
	cells := make([]counts, opt.NumProcs)

	if opt.Model != nil {
		// The lockstep-driver rule, applied to the sweep: modeled figures
		// must be a pure function of input and p, but the shared union-find
		// evolves under whatever interleaving the scheduler produces, so a
		// concurrent modeled run would report schedule-dependent chase and
		// compression counts. Serialize instead.
		if err := lockstepSweep(g, uf, hooks, cells, opt); err != nil {
			return nil, Stats{}, err
		}
	} else {
		team := par.NewTeam(opt.NumProcs, nil).Observe(opt.Obs).
			Cancel(opt.Cancel).Chaos(opt.Chaos)
		if err := team.RunErr(func(c *par.Ctx) {
			hookSweep(c, g, uf, hooks, cells)
		}); err != nil {
			return nil, Stats{}, err
		}
	}

	// Rooting epilogue: rewrite the hook slots into a rooted parent
	// array. O(n + treeEdges) work on top of the sweep, charged to
	// processor 0 like the SV family's rooting pass.
	parent := make([]graph.VID, n)
	te := rootForest(hooks, parent, opt.Model.Probe(0))
	stats := statsFromCells(cells)
	stats.TreeEdges = te
	return parent, stats, nil
}

// hookSweep is the team body: initialize the union-find in parallel,
// barrier once, then sweep every vertex's arcs through the hook
// election on the dynamic scheduler. The arc scan is degree-weighted
// work, so ForDynamic's stealing rebalances skewed inputs, and its
// per-chunk flag poll bounds cancellation latency to one chunk per
// worker.
func hookSweep(c *par.Ctx, g *graph.Graph, uf []int32, hooks []int64, cells []counts) {
	n := g.NumVertices()
	probe := c.Probe()
	ow := c.Obs()

	c.ForDynamic(n, func(i int) {
		uf[i] = int32(i)
		hooks[i] = spansv.NoArc
	})
	c.Barrier()

	h := hooker{uf: uf, hooks: hooks, probe: probe, ct: &cells[c.TID()]}
	var lc obs.Local
	c.ForDynamic(n, func(vi int) {
		v := graph.VID(vi)
		// Each undirected edge is processed once, by its smaller endpoint
		// (w <= v skips the mirror arc and self loops).
		probe.NonContig(1) // load the offset pair
		nb := g.Neighbors(v)
		probe.Contig(int64(len(nb)))
		lc.Add(obs.EdgesScanned, int64(len(nb)))
		for _, w := range nb {
			if w <= v {
				continue
			}
			h.hook(v, w)
		}
	})
	lc.Add(obs.HooksWon, h.ct.won)
	lc.Add(obs.HooksLost, h.ct.lost)
	lc.Add(obs.UFFinds, h.ct.finds)
	lc.Add(obs.CompressionWrites, h.ct.compress)
	lc.FlushTo(ow)
}

// lockstepSweep is the modeled path: the p workers' static blocks
// advance through a fixed round-robin of chunk-sized turns on one
// goroutine, so the shared union-find passes through one reproducible
// interleaving and the modeled counters — including the CAS and
// pointer-chase classes — are deterministic run to run. Costs are
// charged per virtual processor exactly as the concurrent sweep would
// charge them (the drain cadence of 2 noncontiguous accesses per chunk,
// the per-vertex scan traffic, the find chases and hook CASes), and the
// init/sweep barrier is counted. Two things differ by construction:
// hook elections never race on a serial schedule, so modeled runs
// report HooksLost = 0 (wall-clock runs measure real contention), and
// chaos injection is ignored, as on every modeled path. The cancel flag
// is still polled per chunk turn.
func lockstepSweep(g *graph.Graph, uf []int32, hooks []int64, cells []counts, opt Options) error {
	n := g.NumVertices()
	p := opt.NumProcs
	const chunk = par.DefaultChunkSize

	probes := make([]*smpmodel.Probe, p)
	hookers := make([]hooker, p)
	locals := make([]obs.Local, p)
	pos := make([]int, p)
	hi := make([]int, p)
	for tid := 0; tid < p; tid++ {
		probes[tid] = opt.Model.Probe(tid)
		hookers[tid] = hooker{uf: uf, hooks: hooks, probe: probes[tid], ct: &cells[tid]}
		pos[tid] = tid * n / p
		hi[tid] = (tid + 1) * n / p
	}

	// Init phase: the same static blocks, the same drain cadence.
	initPos := make([]int, p)
	copy(initPos, pos)
	for live := true; live; {
		live = false
		for tid := 0; tid < p; tid++ {
			if initPos[tid] >= hi[tid] {
				continue
			}
			live = true
			k := min(chunk, hi[tid]-initPos[tid])
			probes[tid].NonContig(2)
			for i := initPos[tid]; i < initPos[tid]+k; i++ {
				uf[i] = int32(i)
				hooks[i] = spansv.NoArc
			}
			initPos[tid] += k
		}
	}
	opt.Model.AddBarriers(1)

	for live := true; live; {
		live = false
		for tid := 0; tid < p; tid++ {
			if pos[tid] >= hi[tid] {
				continue
			}
			live = true
			if opt.Cancel.Tripped() {
				flushLockstep(locals, opt.Obs)
				return opt.Cancel.Err()
			}
			k := min(chunk, hi[tid]-pos[tid])
			probes[tid].NonContig(2)
			lc := &locals[tid]
			lc.Incr(obs.ChunkDrains)
			lc.Add(obs.DrainedVertices, int64(k))
			lc.Incr(obs.DrainHistBucket(k))
			h := &hookers[tid]
			for vi := pos[tid]; vi < pos[tid]+k; vi++ {
				v := graph.VID(vi)
				probes[tid].NonContig(1)
				nb := g.Neighbors(v)
				probes[tid].Contig(int64(len(nb)))
				lc.Add(obs.EdgesScanned, int64(len(nb)))
				for _, w := range nb {
					if w <= v {
						continue
					}
					h.hook(v, w)
				}
			}
			pos[tid] += k
		}
	}
	for tid := 0; tid < p; tid++ {
		lc := &locals[tid]
		ct := &cells[tid]
		lc.Add(obs.HooksWon, ct.won)
		lc.Add(obs.HooksLost, ct.lost)
		lc.Add(obs.UFFinds, ct.finds)
		lc.Add(obs.CompressionWrites, ct.compress)
	}
	flushLockstep(locals, opt.Obs)
	return nil
}

func flushLockstep(locals []obs.Local, rec *obs.Recorder) {
	for tid := range locals {
		locals[tid].FlushTo(rec.Worker(tid))
	}
}

func statsFromCells(cells []counts) Stats {
	var s Stats
	for i := range cells {
		s.HooksLost += cells[i].lost
		s.Finds += cells[i].finds
		s.CompressionWrites += cells[i].compress
	}
	return s
}

// rootForest rewrites the hook slots into a rooted parent array:
// counting-sort the hooked arcs into a CSR over tree edges, then BFS
// from every union-find root. A vertex stops being a root only by
// winning exactly one hook, so hooks[r] == spansv.NoArc marks exactly the
// final roots — one per component — and the hooked arcs form a spanning
// tree of each component (every hook merged two disjoint sets along a
// graph edge). Returns the tree-edge count. Deterministic given hooks.
func rootForest(hooks []int64, parent []graph.VID, probe *smpmodel.Probe) int {
	n := len(hooks)
	offs := make([]int32, n+1)
	treeEdges := 0
	for _, hk := range hooks {
		if hk == spansv.NoArc {
			continue
		}
		v, w := spansv.UnpackArc(hk)
		offs[v+1]++
		offs[w+1]++
		treeEdges++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	cur := make([]int32, n)
	adj := make([]int32, 2*treeEdges)
	for _, hk := range hooks {
		if hk == spansv.NoArc {
			continue
		}
		v, w := spansv.UnpackArc(hk)
		adj[offs[v]+cur[v]] = int32(w)
		cur[v]++
		adj[offs[w]+cur[w]] = int32(v)
		cur[w]++
	}
	// Two streaming passes over the hook slots plus the scattered
	// adjacency writes.
	probe.Contig(int64(2 * n))
	probe.NonContig(int64(4 * treeEdges))

	for i := range parent {
		parent[i] = graph.None
	}
	q := make([]int32, n)
	head, tail := 0, 0
	for r := 0; r < n; r++ {
		if hooks[r] != spansv.NoArc {
			continue // not a final union-find root
		}
		parent[r] = graph.VID(r) // self-parent sentinel; normalized below
		q[tail] = int32(r)
		tail++
		for head < tail {
			v := graph.VID(q[head])
			head++
			probe.NonContig(1)
			for _, w32 := range adj[offs[v]:offs[v+1]] {
				w := graph.VID(w32)
				probe.NonContig(1)
				if parent[w] == graph.None {
					parent[w] = v
					q[tail] = int32(w)
					tail++
				}
			}
		}
	}
	for i := range parent {
		if parent[i] == graph.VID(i) {
			parent[i] = graph.None
		}
	}
	probe.Contig(int64(2 * len(parent)))
	return treeEdges
}
