// Package spanlevel implements a level-synchronous parallel BFS
// spanning-tree algorithm: all p processors expand the current frontier
// in parallel, claim vertices with CAS exactly like the work-stealing
// traversal, and meet at a barrier after every level.
//
// It is the natural foil for the paper's design: both algorithms do
// O((n+m)/p) work, but level-synchronous BFS performs one barrier per
// BFS level — Θ(diameter) barriers — where the paper's asynchronous
// work-stealing traversal needs O(1). On small-diameter graphs the two
// are close; on meshes and geometric graphs (diameter ~sqrt(n)) the
// barrier term dominates, which is precisely the argument of the
// paper's Section 3 complexity comparison. The spanlevel-vs-core
// benchmark makes that argument measurable.
package spanlevel

import (
	"fmt"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
)

// Options configures a run.
type Options struct {
	// NumProcs is the number of virtual processors (>= 1).
	NumProcs int
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
	// Obs, when non-nil, receives the team's barrier waits and episodes.
	Obs *obs.Recorder
	// Cancel is the run's cooperative stop flag (nil never trips);
	// Chaos the fault injector (nil injects nothing).
	Cancel *fault.Flag
	Chaos  *chaos.Injector
}

// Stats reports what a run did.
type Stats struct {
	// Levels is the total number of BFS levels across all components —
	// the barrier count driver.
	Levels int
	// Components is the number of connected components found.
	Components int
	// MaxFrontier is the largest frontier encountered.
	MaxFrontier int
}

// SpanningForest runs level-synchronous BFS from vertex 0 onward,
// restarting at the next unvisited vertex per component, and returns the
// forest as a parent array plus statistics.
//
// The team runs once for the whole forest and meets at exactly one
// barrier per level. Each processor appends its discoveries to its own
// buffer, double-buffered by level parity, and after the barrier every
// processor reads the level's buffers as one frontier, so no processor
// gathers them. When a component runs dry, every processor scans for the
// next root on its own and all find the same one: a vertex's color is
// the 1-based index of its component, and the first vertex whose color
// is 0 or the new component's index stays the same while faster
// processors already color the new component.
func SpanningForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("spanlevel: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	n := g.NumVertices()
	parent := make([]graph.VID, n)
	color := make([]int32, n)
	for i := range parent {
		parent[i] = graph.None
	}
	var stats Stats
	if n == 0 {
		return parent, stats, nil
	}

	p := opt.NumProcs
	team := par.NewTeam(p, opt.Model).Observe(opt.Obs).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	// bufs[l%2][t] holds processor t's discoveries at level l.
	var bufs [2][][]graph.VID
	for i := range bufs {
		bufs[i] = make([][]graph.VID, p)
		for t := range bufs[i] {
			bufs[i][t] = make([]graph.VID, 0, 1024)
		}
	}

	err := team.RunErr(func(c *par.Ctx) {
		tid, probe := c.TID(), c.Probe()
		var (
			f         frontier
			mine      []graph.VID
			comp      int32 // components started so far
			start     int   // every vertex below start is colored
			cur       int   // parity of the level being expanded
			root      = []graph.VID{0}
			rootParts = [][]graph.VID{root}
		)
		expand := func(i int) {
			v := f.at(i)
			probe.NonContig(1)
			nb := g.Neighbors(v)
			probe.Contig(int64(len(nb)))
			for _, w := range nb {
				probe.NonContig(2)
				if atomic.LoadInt32(&color[w]) != 0 {
					continue
				}
				if atomic.CompareAndSwapInt32(&color[w], 0, comp) {
					probe.NonContig(2)
					parent[w] = v
					mine = append(mine, w)
				}
			}
		}
		for {
			for start < n {
				if col := atomic.LoadInt32(&color[start]); col == 0 || col == comp+1 {
					break
				}
				start++
			}
			if start == n {
				return
			}
			comp++
			atomic.StoreInt32(&color[start], comp)
			root[0] = graph.VID(start)
			f = frontier{parts: rootParts, n: 1}
			for f.n > 0 {
				if tid == 0 {
					stats.Levels++
					stats.MaxFrontier = max(stats.MaxFrontier, f.n)
				}
				mine = bufs[cur][tid][:0]
				c.ForDynamic(f.n, expand)
				bufs[cur][tid] = mine
				// The level barrier, the defining cost of this algorithm:
				// one per level.
				c.Barrier()
				f = frontier{parts: bufs[cur]}
				for _, b := range f.parts {
					f.n += len(b)
					if tid == 0 {
						probe.Contig(int64(len(b))) // the frontier concatenation
					}
				}
				cur ^= 1
			}
			if tid == 0 {
				stats.Components++
			}
		}
	})
	if err != nil {
		return nil, stats, err
	}
	return parent, stats, nil
}

// frontier reads a level's per-processor buffers as one list of n
// vertices. It caches the buffer that held the last index read, so the
// ascending indices of a drained chunk cost no search.
type frontier struct {
	parts [][]graph.VID
	n     int
	seg   int // parts[seg] holds indices [lo, lo+len(parts[seg]))
	lo    int
}

func (f *frontier) at(i int) graph.VID {
	if i < f.lo {
		f.seg, f.lo = 0, 0
	}
	for i >= f.lo+len(f.parts[f.seg]) {
		f.lo += len(f.parts[f.seg])
		f.seg++
	}
	return f.parts[f.seg][i-f.lo]
}
