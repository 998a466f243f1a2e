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
	"spantree/internal/par"
	"spantree/internal/smpmodel"
)

// Options configures a run.
type Options struct {
	// NumProcs is the number of virtual processors (>= 1).
	NumProcs int
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
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
	team := par.NewTeam(p, opt.Model).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	frontier := make([]graph.VID, 0, 1024)
	// next collects each processor's discoveries; they are concatenated
	// after the level barrier.
	nextBufs := make([][]graph.VID, p)
	for i := range nextBufs {
		nextBufs[i] = make([]graph.VID, 0, 1024)
	}

	for start := 0; start < n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		stats.Components++
		frontier = append(frontier[:0], graph.VID(start))
		for len(frontier) > 0 {
			stats.Levels++
			if len(frontier) > stats.MaxFrontier {
				stats.MaxFrontier = len(frontier)
			}
			err := team.RunErr(func(c *par.Ctx) {
				probe := c.Probe()
				mine := nextBufs[c.TID()][:0]
				c.ForDynamic(len(frontier), func(i int) {
					v := frontier[i]
					probe.NonContig(1)
					nb := g.Neighbors(v)
					probe.Contig(int64(len(nb)))
					for _, w := range nb {
						probe.NonContig(2)
						if atomic.LoadInt32(&color[w]) != 0 {
							continue
						}
						if atomic.CompareAndSwapInt32(&color[w], 0, 1) {
							probe.NonContig(2)
							parent[w] = v
							mine = append(mine, w)
						}
					}
				})
				nextBufs[c.TID()] = mine
			})
			if err != nil {
				return nil, stats, err
			}
			// Level barrier: the team join is the synchronization point;
			// charge one barrier per level (the defining cost of this
			// algorithm).
			opt.Model.AddBarriers(1)
			frontier = frontier[:0]
			for i := range nextBufs {
				frontier = append(frontier, nextBufs[i]...)
				opt.Model.Probe(0).Contig(int64(len(nextBufs[i])))
			}
		}
	}
	return parent, stats, nil
}
