// Package spansv implements the Shiloach-Vishkin (SV) connectivity
// algorithm adapted to compute spanning trees on an SMP, the principal
// parallel baseline of the paper.
//
// SV is a graft-and-shortcut algorithm: every component is maintained as
// a rooted star in an array D; each iteration grafts star roots onto
// smaller-labeled neighboring components and then shortcuts every tree
// back to a star by pointer jumping. On a priority CRCW PRAM the model
// arbitrates concurrent grafts; on a real SMP the paper's adaptation
// "runs an election among the processors that wish to graft the same
// tree", which this package implements with a compare-and-swap per root.
// A lock-per-root variant is provided because the paper observes that
// "the locking approach intuitively is slow and not scalable, and our
// test results agree" — the ablation benchmark quantifies that.
//
// The algorithm's running time depends on the initial labeling of the
// vertices: friendly labelings finish in one graft iteration, adversarial
// ones take up to ~log n. The experiment suite reproduces the paper's
// torus row-major vs random labeling contrast through this package.
//
// GraftFrom additionally exposes the core loop with caller-provided
// initial component labels; the work-stealing algorithm's pathological-
// case fallback uses it to finish a partially grown forest, exactly the
// paper's "merge the grown spanning subtree into a super-vertex, and
// start a different algorithm, for instance, the SV approach".
package spansv

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
	"spantree/internal/spanseq"
)

// Options configures a run.
type Options struct {
	// NumProcs is the number of virtual processors p (>= 1).
	NumProcs int
	// UseLocks selects the per-root mutex election instead of CAS (the
	// paper's slow variant, kept for the ablation).
	UseLocks bool
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
	// Obs, when non-nil, receives per-worker counters (EdgesScanned for
	// election scans, VerticesClaimed for grafts won) and barrier
	// waits/episodes from the team barrier.
	Obs *obs.Recorder
	// MaxIterations caps graft-and-shortcut iterations; 0 means n+2,
	// which always suffices (every productive iteration removes at least
	// one root). Tests use small caps to exercise early termination.
	MaxIterations int
	// Cancel is the run's cooperative stop flag (nil never trips); the
	// team polls it at every barrier entry and ForDynamic chunk
	// boundary, and a tripped run returns the flag's typed error.
	Cancel *fault.Flag
	// Chaos is the fault injector (nil, and compiled to no-ops in
	// default builds, injects nothing).
	Chaos *chaos.Injector
}

// Stats reports what a run did.
type Stats struct {
	// Iterations is the number of graft-and-shortcut iterations, the
	// paper's labeling-sensitive quantity.
	Iterations int
	// ShortcutRounds is the total number of pointer-jumping rounds.
	ShortcutRounds int
	// Grafts is the number of graft operations == emitted tree edges.
	Grafts int
}

const nobody = int64(-1)

// packArc packs an arc (v,w) into an int64 for the election slots.
func packArc(v, w graph.VID) int64 {
	return int64(uint64(uint32(v))<<32 | uint64(uint32(w)))
}

func unpackArc(x int64) (v, w graph.VID) {
	return graph.VID(uint32(uint64(x) >> 32)), graph.VID(uint32(uint64(x)))
}

// SpanningForest runs SV from singleton components and returns the
// forest as a parent array plus run statistics.
func SpanningForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	n := g.NumVertices()
	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	edges, stats, err := GraftFrom(g, d, opt)
	if err != nil {
		return nil, stats, err
	}
	// Root the selected tree edges into a parent array. This is O(n)
	// work on top of the SV core, charged to processor 0.
	treeAdj := make([][]graph.VID, n)
	for _, e := range edges {
		treeAdj[e.U] = append(treeAdj[e.U], e.V)
		treeAdj[e.V] = append(treeAdj[e.V], e.U)
	}
	opt.Model.Probe(0).NonContig(int64(2 * len(edges)))
	parent := spanseq.RootForest(n, treeAdj)
	return parent, stats, nil
}

// GraftFrom runs the SV graft-and-shortcut loop starting from the given
// component labeling d (d[v] must form rooted stars: d[d[v]] == d[v])
// and returns the graph edges used for grafts. d is modified in place;
// on return, d[v] is the minimum initial label in v's component.
//
// Grafts only ever join distinct initial components, so the returned
// edges plus any spanning structure internal to the initial components
// form a spanning forest of g.
func GraftFrom(g *graph.Graph, d []int32, opt Options) ([]graph.Edge, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("spansv: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	n := g.NumVertices()
	if len(d) != n {
		return nil, Stats{}, fmt.Errorf("spansv: initial labeling has length %d, want %d", len(d), n)
	}
	for v := 0; v < n; v++ {
		if d[v] < 0 || int(d[v]) >= n || d[d[v]] != d[v] {
			return nil, Stats{}, fmt.Errorf("spansv: initial labeling is not a rooted star at vertex %d", v)
		}
	}
	maxIter := opt.MaxIterations
	if maxIter == 0 {
		maxIter = n + 2
	}

	winner := make([]int64, n)
	var locks []sync.Mutex
	if opt.UseLocks {
		locks = make([]sync.Mutex, n)
	}

	team := par.NewTeam(opt.NumProcs, opt.Model).Observe(opt.Obs).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	edgeBufs := make([][]graph.Edge, opt.NumProcs)
	iterations, rounds := 0, 0

	if err := team.RunErr(func(c *par.Ctx) {
		runSV(c, g, d, winner, locks, edgeBufs, maxIter, &iterations, &rounds)
	}); err != nil {
		return nil, Stats{}, err
	}

	var stats Stats
	stats.Iterations = iterations
	stats.ShortcutRounds = rounds
	var edges []graph.Edge
	for _, eb := range edgeBufs {
		edges = append(edges, eb...)
	}
	stats.Grafts = len(edges)
	return edges, stats, nil
}

func runSV(c *par.Ctx, g *graph.Graph, d []int32, winner []int64, locks []sync.Mutex,
	edgeBufs [][]graph.Edge, maxIter int, iterations, rounds *int) {
	n := g.NumVertices()
	probe := c.Probe()
	ow := c.Obs()
	var myEdges []graph.Edge

	// Initialize election slots in parallel.
	c.ForDynamic(n, func(i int) { winner[i] = nobody })
	c.Barrier()

	for iter := 0; iter < maxIter; iter++ {
		// Phase A: election. For each arc (v,w), if root(w) < root(v) and
		// root(v) is a star root, root(v) is a candidate to graft along
		// this arc; the first CAS wins the election for that root.
		// Counters batch in a local per phase: a per-vertex atomic store
		// is a fence on the scan loop. The sweep is degree-weighted work,
		// so it runs on the dynamic scheduler: a worker whose block holds
		// the hubs of a skewed input sheds the surplus to thieves.
		var lc obs.Local
		c.ForDynamic(n, func(vi int) {
			v := graph.VID(vi)
			probe.NonContig(1) // load D[v]
			rv := d[v]
			nb := g.Neighbors(v)
			probe.Contig(int64(len(nb)))
			lc.Add(obs.EdgesScanned, int64(len(nb)))
			for _, w := range nb {
				probe.NonContig(2) // load D[w]; check D[rv]
				rw := d[w]
				if rw >= rv || d[rv] != rv {
					continue
				}
				if locks != nil {
					// Lock-based election (ablation): serialize on the root.
					probe.NonContig(3) // lock acquire/release traffic
					locks[rv].Lock()
					if winner[rv] == nobody {
						winner[rv] = packArc(v, w)
					}
					locks[rv].Unlock()
				} else {
					probe.NonContig(1) // CAS
					atomic.CompareAndSwapInt64(&winner[rv], nobody, packArc(v, w))
				}
			}
		})
		lc.FlushTo(ow)
		c.Barrier()

		// Phase B: apply the elected grafts. Values in d only decrease,
		// so reading d[w] while other roots are being grafted still
		// yields a label strictly below r: grafting stays acyclic.
		grafted := false
		c.ForDynamic(n, func(ri int) {
			r := graph.VID(ri)
			probe.NonContig(1)
			arc := winner[r]
			if arc == nobody {
				return
			}
			v, w := unpackArc(arc)
			probe.NonContig(2) // load D[w], store D[r]
			target := atomic.LoadInt32(&d[w])
			if target < int32(r) {
				atomic.StoreInt32(&d[r], target)
				myEdges = append(myEdges, graph.Edge{U: v, V: w})
				lc.Incr(obs.VerticesClaimed) // one graft == one tree edge won
				grafted = true
			}
			winner[r] = nobody
		})
		lc.FlushTo(ow)
		anyGraft := c.ReduceOr(grafted)
		if c.TID() == 0 {
			*iterations = iter + 1
		}
		if !anyGraft {
			break
		}

		// Phase C: shortcut every tree to a rooted star by pointer
		// jumping ("always shortcut the tree to rooted star"). This is
		// where SV's extra log n factor of non-contiguous accesses lives.
		for {
			changed := false
			c.ForDynamic(n, func(vi int) {
				v := graph.VID(vi)
				probe.NonContig(2) // load D[v], load D[D[v]]
				dv := atomic.LoadInt32(&d[v])
				ddv := atomic.LoadInt32(&d[dv])
				if dv != ddv {
					atomic.StoreInt32(&d[v], ddv)
					changed = true
				}
			})
			if c.TID() == 0 {
				*rounds++
			}
			if !c.ReduceOr(changed) {
				break
			}
		}
	}
	edgeBufs[c.TID()] = myEdges
}

// ConnectedComponents runs the SV core without rooting and returns the
// component label of every vertex (the minimum vertex id of its
// component) and the number of components.
func ConnectedComponents(g *graph.Graph, opt Options) ([]graph.VID, int, error) {
	n := g.NumVertices()
	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	_, _, err := GraftFrom(g, d, opt)
	if err != nil {
		return nil, 0, err
	}
	label := make([]graph.VID, n)
	comps := 0
	for v := 0; v < n; v++ {
		label[v] = d[v]
		if int(d[v]) == v {
			comps++
		}
	}
	return label, comps, nil
}
