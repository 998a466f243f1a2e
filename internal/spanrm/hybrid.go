package spanrm

import (
	"fmt"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/par"
	"spantree/internal/spanseq"
	"spantree/internal/spansv"
)

// HybridOptions configures HybridSpanningForest.
type HybridOptions struct {
	// NumProcs is the number of virtual processors (>= 1).
	NumProcs int
	// Seed drives the mating coin flips.
	Seed uint64
	// MatingRounds is the number of random-mating rounds to run before
	// handing the contracted graph to Shiloach-Vishkin; 0 means 3.
	MatingRounds int
	// ChunkSize is the drain chunk of the shared dynamic scheduler for
	// both the mating sweeps and the SV completion.
	ChunkSize int
	// Cancel is the run's cooperative stop flag (nil never trips);
	// Chaos the fault injector (nil injects nothing). Both are shared
	// with the SV completion phase.
	Cancel *fault.Flag
	Chaos  *chaos.Injector
}

// HybridStats reports what a hybrid run did.
type HybridStats struct {
	// MatingRounds and MatingHooks describe the first phase.
	MatingRounds int
	MatingHooks  int
	// SV describes the completion phase.
	SV spansv.Stats
}

// HybridSpanningForest implements the fourth algorithm of Greiner's
// study ("random-mating ... and a hybrid of the previous three"): a few
// rounds of random mating shrink the component count by a constant
// factor per round — cheap, labeling-insensitive contraction — and
// Shiloach-Vishkin finishes the residue, whose star invariants the
// mating rounds already established.
func HybridSpanningForest(g *graph.Graph, opt HybridOptions) ([]graph.VID, HybridStats, error) {
	if opt.NumProcs < 1 {
		return nil, HybridStats{}, fmt.Errorf("spanrm: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	rounds := opt.MatingRounds
	if rounds == 0 {
		rounds = 3
	}
	n := g.NumVertices()
	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	winner := make([]int64, n)
	coin := make([]bool, n)

	team := par.NewTeam(opt.NumProcs, nil).Chunk(opt.ChunkSize).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	edgeBufs := make([][]graph.Edge, opt.NumProcs)
	var stats HybridStats
	stats.MatingRounds = rounds

	err := team.RunErr(func(c *par.Ctx) {
		var myEdges []graph.Edge
		defer func() { edgeBufs[c.TID()] = myEdges }()
		c.ForDynamic(n, func(i int) { winner[i] = nobody })
		c.Barrier()

		for round := 0; round < rounds; round++ {
			c.ForDynamic(n, func(vi int) {
				coin[vi] = flip(opt.Seed, uint64(round), uint64(vi))
			})
			c.Barrier()
			c.ForDynamic(n, func(vi int) {
				v := graph.VID(vi)
				rv := d[v]
				if d[rv] != rv || coin[rv] {
					return
				}
				for _, w := range g.Neighbors(v) {
					rw := d[w]
					if rw == rv || !coin[rw] {
						continue
					}
					if atomic.CompareAndSwapInt64(&winner[rv], nobody, packArc(v, w)) {
						break
					}
				}
			})
			c.Barrier()
			c.ForDynamic(n, func(ri int) {
				r := graph.VID(ri)
				arc := winner[r]
				if arc == nobody {
					return
				}
				v, w := unpackArc(arc)
				atomic.StoreInt32(&d[r], atomic.LoadInt32(&d[w]))
				myEdges = append(myEdges, graph.Edge{U: v, V: w})
				winner[r] = nobody
			})
			c.Barrier()
			for {
				changed := false
				c.ForDynamic(n, func(vi int) {
					v := graph.VID(vi)
					dv := atomic.LoadInt32(&d[v])
					ddv := atomic.LoadInt32(&d[dv])
					if dv != ddv {
						atomic.StoreInt32(&d[v], ddv)
						changed = true
					}
				})
				if !c.ReduceOr(changed) {
					break
				}
			}
		}
	})
	if err != nil {
		return nil, stats, err
	}

	var edges []graph.Edge
	for _, eb := range edgeBufs {
		edges = append(edges, eb...)
	}
	stats.MatingHooks = len(edges)

	// Completion: SV grafts the remaining components. The mating phase
	// left d as rooted stars, which is exactly GraftFrom's precondition.
	svEdges, svStats, err := spansv.GraftFrom(g, d, spansv.Options{
		NumProcs: opt.NumProcs, ChunkSize: opt.ChunkSize,
		Cancel: opt.Cancel, Chaos: opt.Chaos})
	if err != nil {
		return nil, stats, fmt.Errorf("spanrm: hybrid SV completion: %w", err)
	}
	stats.SV = svStats
	edges = append(edges, svEdges...)

	treeAdj := make([][]graph.VID, n)
	for _, e := range edges {
		treeAdj[e.U] = append(treeAdj[e.U], e.V)
		treeAdj[e.V] = append(treeAdj[e.V], e.U)
	}
	return spanseq.RootForest(n, treeAdj), stats, nil
}
