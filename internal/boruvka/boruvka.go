// Package boruvka implements a parallel Borůvka minimum-spanning-forest
// algorithm on the same SMP substrate as the spanning-tree algorithms.
// MST is the first item in the paper's future-work list ("we plan to
// apply the techniques discussed in this paper to other related graph
// problems, for instance, minimum spanning tree (forest)"), and Borůvka
// is the parallel MST algorithm of the experimental studies the paper
// surveys (Chung & Condon; Dehne & Götz).
//
// Each round every component selects its minimum-weight outgoing edge
// (by atomic min-election, the same technique as the SV adaptation's
// grafts), components merge along the selected edges, and labels are
// flattened by the graft-and-shortcut family's pointer jump
// (spansv.Shortcut); the selected edges are rooted by its rooting pass
// (spansv.Root). For distinct edge weights the result is the unique
// MSF; ties are broken by edge id, so the result is always a
// well-defined minimum spanning forest.
package boruvka

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
	"spantree/internal/spansv"
)

// WeightFunc assigns a weight to the undirected edge {u,v}. It must be
// symmetric: WeightFunc(u,v) == WeightFunc(v,u).
type WeightFunc func(u, v graph.VID) float64

// Options configures a run.
type Options struct {
	// NumProcs is the number of virtual processors (>= 1).
	NumProcs int
	// Weight assigns edge weights; nil means a deterministic pseudo-
	// random weight derived from the endpoint pair, giving a random
	// (but reproducible) MSF. A caller's function is checked over every
	// edge first: a NaN weight poisons every min-election it meets, so
	// it is rejected with a typed error instead of silently producing an
	// arbitrary forest.
	Weight WeightFunc
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
	// Cancel is the run's cooperative stop flag (nil never trips);
	// Chaos the fault injector (nil injects nothing).
	Cancel *fault.Flag
	Chaos  *chaos.Injector
}

// Stats reports what a run did.
type Stats struct {
	// Rounds is the number of Borůvka rounds.
	Rounds int
	// TreeEdges is the number of MSF edges selected.
	TreeEdges int
	// TotalWeight is the sum of selected edge weights.
	TotalWeight float64
}

// hashWeight is the default weight: a deterministic hash of the
// canonical endpoint pair mapped to (0,1), plus a tie-breaking epsilon
// from the pair itself (hash collisions are broken by edge identity in
// candidate comparison, so equal weights are still safe).
func hashWeight(u, v graph.VID) float64 {
	if u > v {
		u, v = v, u
	}
	x := uint64(uint32(u))<<32 | uint64(uint32(v))
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return float64(x>>11) / (1 << 53)
}

// candidate packs a weight and an arc for the per-component atomic min
// election: comparisons order by weight, then by canonical edge id so
// ties are deterministic.
type candidate struct {
	weight float64
	u, v   graph.VID
	// target is the root of v's component at proposal time; hooks use
	// it (not a re-read of d[v]) so the round's hook digraph is exactly
	// the selected-edge digraph over round-start components, which is
	// acyclic apart from mutual 2-cycles.
	target int32
}

func (c candidate) less(d candidate) bool {
	if c.weight != d.weight {
		return c.weight < d.weight
	}
	cu, cv := graph.Edge{U: c.u, V: c.v}.Canon().U, graph.Edge{U: c.u, V: c.v}.Canon().V
	du, dv := graph.Edge{U: d.u, V: d.v}.Canon().U, graph.Edge{U: d.u, V: d.v}.Canon().V
	if cu != du {
		return cu < du
	}
	return cv < dv
}

// MinimumSpanningForest computes a minimum spanning forest of g and
// returns it as a parent array plus statistics.
func MinimumSpanningForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("boruvka: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	weight := opt.Weight
	if weight == nil {
		weight = hashWeight // finite everywhere
	} else if err := g.ValidateWeights(weight); err != nil {
		return nil, Stats{}, fmt.Errorf("boruvka: %w", err)
	}
	n := g.NumVertices()
	d := make([]int32, n) // component label, maintained as rooted stars
	for i := range d {
		d[i] = int32(i)
	}
	// Per-component best candidate, guarded by a version/lock word so a
	// multi-word candidate can be updated atomically: 0 = free.
	locks := make([]int32, n)
	best := make([]candidate, n)
	for i := range best {
		best[i].weight = math.Inf(1)
	}

	team := par.NewTeam(opt.NumProcs, opt.Model).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	edgeBufs := make([][]graph.Edge, opt.NumProcs)
	weightBufs := make([]float64, opt.NumProcs)
	rounds := 0

	err := team.RunErr(func(c *par.Ctx) {
		probe := c.Probe()
		var myEdges []graph.Edge
		myWeight := 0.0

		propose := func(root int32, cand candidate) {
			// Spinlock per root: contention is bounded by the component's
			// degree and rounds are short; a CAS loop on a version word
			// lets us update the multi-word candidate safely. Gosched in
			// the spin keeps the loop live when the host has fewer cores
			// than virtual processors.
			for !atomic.CompareAndSwapInt32(&locks[root], 0, 1) {
				runtime.Gosched()
			}
			if cand.less(best[root]) {
				best[root] = cand
			}
			atomic.StoreInt32(&locks[root], 0)
		}

		for round := 0; ; round++ {
			// Phase A: every arc proposes to its component's election.
			c.ForDynamic(n, func(vi int) {
				v := graph.VID(vi)
				probe.NonContig(1)
				rv := d[v]
				nb := g.Neighbors(v)
				probe.Contig(int64(len(nb)))
				for _, w := range nb {
					probe.NonContig(2)
					rw := d[w]
					if rw == rv {
						continue // internal edge
					}
					probe.NonContig(2) // election access
					propose(rv, candidate{weight: weight(v, w), u: v, v: w, target: rw})
				}
			})
			c.Barrier()

			// Phase B: apply the selected edges. To avoid 2-cycles when
			// two components select the same edge, the edge is applied by
			// the larger-labeled root only, pointing it at the smaller
			// root (the classic symmetric-breaking rule; the resulting
			// hook graph is acyclic).
			merged := false
			c.ForDynamic(n, func(ri int) {
				r := int32(ri)
				probe.NonContig(1)
				if d[r] != r || math.IsInf(best[r].weight, 1) {
					return
				}
				cand := best[r]
				probe.NonContig(2)
				// Mutual-selection tie-break: both endpoints' components
				// picked this same edge; only the smaller root hooks, the
				// larger keeps its label, breaking the 2-cycle.
				other := best[cand.target]
				if !math.IsInf(other.weight, 1) &&
					other.u == cand.v && other.v == cand.u && cand.target > r {
					return // the other side will hook onto us
				}
				atomic.StoreInt32(&d[r], cand.target)
				myEdges = append(myEdges, graph.Edge{U: cand.u, V: cand.v})
				myWeight += cand.weight
				merged = true
			})
			anyMerge := c.ReduceOr(merged)
			if c.TID() == 0 {
				rounds = round + 1
			}
			if !anyMerge {
				break
			}

			// Phase C: flatten to stars and reset elections.
			spansv.Shortcut(c, d)
			c.ForDynamic(n, func(i int) {
				best[i].weight = math.Inf(1)
			})
			c.Barrier()
		}
		edgeBufs[c.TID()] = myEdges
		weightBufs[c.TID()] = myWeight
	})
	if err != nil {
		return nil, Stats{}, err
	}

	var stats Stats
	stats.Rounds = rounds
	var edges []graph.Edge
	for i, eb := range edgeBufs {
		edges = append(edges, eb...)
		stats.TotalWeight += weightBufs[i]
	}
	stats.TreeEdges = len(edges)
	// The rooting pass is not charged to the model.
	return spansv.Root(n, edges, nil), stats, nil
}

// SequentialMSF computes the reference minimum spanning forest with
// Kruskal's algorithm (sort all edges, union-find sweep), for verifying
// the parallel Borůvka result.
func SequentialMSF(g *graph.Graph, weight WeightFunc) ([]graph.Edge, float64) {
	if weight == nil {
		weight = hashWeight
	}
	edges := g.Edges()
	type we struct {
		w float64
		e graph.Edge
	}
	wes := make([]we, len(edges))
	for i, e := range edges {
		wes[i] = we{weight(e.U, e.V), e}
	}
	sort.Slice(wes, func(i, j int) bool {
		if wes[i].w != wes[j].w {
			return wes[i].w < wes[j].w
		}
		if wes[i].e.U != wes[j].e.U {
			return wes[i].e.U < wes[j].e.U
		}
		return wes[i].e.V < wes[j].e.V
	})
	uf := graph.NewUnionFind(g.NumVertices())
	var out []graph.Edge
	total := 0.0
	for _, x := range wes {
		if uf.Union(x.e.U, x.e.V) {
			out = append(out, x.e)
			total += x.w
		}
	}
	return out, total
}
