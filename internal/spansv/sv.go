package spansv

// Shiloach-Vishkin. On a priority CRCW PRAM the model arbitrates
// concurrent grafts; on a real SMP the paper's adaptation "runs an
// election among the processors that wish to graft the same tree",
// implemented here with a compare-and-swap per root. The lock-per-root
// election is kept because the paper observes that "the locking
// approach intuitively is slow and not scalable, and our test results
// agree"; the ablation benchmark quantifies that.
//
// SV's running time depends on the initial labeling of the vertices:
// friendly labelings finish in one graft iteration, adversarial ones
// take up to ~log n. The experiment suite reproduces the paper's torus
// row-major vs random labeling contrast through it.
//
// GraftFrom exposes the graft loop with caller-provided initial
// component labels; the work-stealing algorithm's pathological-case
// fallback uses it to finish a partially grown forest, exactly the
// paper's "merge the grown spanning subtree into a super-vertex, and
// start a different algorithm, for instance, the SV approach".

import (
	"fmt"
	"sync"
	"sync/atomic"

	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/par"
)

// Stats reports what an SV or HCS run did.
type Stats struct {
	// Iterations is the number of graft-and-shortcut iterations, the
	// paper's labeling-sensitive quantity.
	Iterations int
	// ShortcutRounds is the total number of pointer-jumping rounds.
	ShortcutRounds int
	// Grafts is the number of graft operations == emitted tree edges.
	Grafts int
}

// SpanningForest runs SV from singleton components and returns the
// forest as a parent array plus run statistics. locks selects the
// per-root mutex election instead of CAS (the paper's slow variant,
// kept for the ablation).
func SpanningForest(g *graph.Graph, opt Options, locks bool) ([]graph.VID, Stats, error) {
	edges, stats, err := graft(g, singletons(g.NumVertices()), opt, locks)
	if err != nil {
		return nil, stats, err
	}
	return root(g.NumVertices(), edges, opt.Model.Probe(0)), stats, nil
}

// GraftFrom runs the SV graft-and-shortcut loop, electing by CAS,
// starting from the given component labeling d (d[v] must form rooted
// stars: d[d[v]] == d[v]) and returns the graph edges used for grafts.
// d is modified in place; on return, d[v] is the minimum initial label
// in v's component.
//
// Grafts only ever join distinct initial components, so the returned
// edges plus any spanning structure internal to the initial components
// form a spanning forest of g.
func GraftFrom(g *graph.Graph, d []int32, opt Options) ([]graph.Edge, Stats, error) {
	return graft(g, d, opt, false)
}

func graft(g *graph.Graph, d []int32, opt Options, locks bool) ([]graph.Edge, Stats, error) {
	n := g.NumVertices()
	if len(d) != n {
		return nil, Stats{}, fmt.Errorf("spansv: initial labeling has length %d, want %d", len(d), n)
	}
	for v := 0; v < n; v++ {
		if d[v] < 0 || int(d[v]) >= n || d[d[v]] != d[v] {
			return nil, Stats{}, fmt.Errorf("spansv: initial labeling is not a rooted star at vertex %d", v)
		}
	}
	winner := make([]int64, n)
	var mus []sync.Mutex
	if locks {
		mus = make([]sync.Mutex, n)
	}
	var stats Stats
	edges, err := run(opt, n+2, func(c *par.Ctx, maxIter int) []graph.Edge {
		return runSV(c, g, d, winner, mus, maxIter, &stats)
	})
	if err != nil {
		return nil, Stats{}, err
	}
	stats.Grafts = len(edges)
	return edges, stats, nil
}

// runSV is one worker's share of the SV loop; processor 0 records the
// iteration and shortcut-round counts in stats.
func runSV(c *par.Ctx, g *graph.Graph, d []int32, winner []int64, mus []sync.Mutex,
	maxIter int, stats *Stats) []graph.Edge {
	n := g.NumVertices()
	probe := c.Probe()
	ow := c.Obs()
	var grafts []graph.Edge

	// Initialize election slots in parallel.
	c.ForDynamic(n, func(i int) { winner[i] = NoArc })
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
				if mus != nil {
					// Lock-based election (ablation): serialize on the root.
					probe.NonContig(3) // lock acquire/release traffic
					mus[rv].Lock()
					if winner[rv] == NoArc {
						winner[rv] = PackArc(v, w)
					}
					mus[rv].Unlock()
				} else {
					probe.NonContig(1) // CAS
					atomic.CompareAndSwapInt64(&winner[rv], NoArc, PackArc(v, w))
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
			if arc == NoArc {
				return
			}
			v, w := UnpackArc(arc)
			probe.NonContig(2) // load D[w], store D[r]
			target := atomic.LoadInt32(&d[w])
			if target < int32(r) {
				atomic.StoreInt32(&d[r], target)
				grafts = append(grafts, graph.Edge{U: v, V: w})
				lc.Incr(obs.VerticesClaimed) // one graft == one tree edge won
				grafted = true
			}
			winner[r] = NoArc
		})
		lc.FlushTo(ow)
		anyGraft := c.ReduceOr(grafted)
		if c.TID() == 0 {
			stats.Iterations = iter + 1
		}
		if !anyGraft {
			break
		}

		// Phase C: shortcut every tree to a rooted star.
		rounds := shortcut(c, d)
		if c.TID() == 0 {
			stats.ShortcutRounds += rounds
		}
	}
	return grafts
}
