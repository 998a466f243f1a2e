package spansv

// Hirschberg-Chandra-Sarwate (HCS). HCS differs from Shiloach-Vishkin
// in how grafts are chosen: instead of an arbitrary-winner election,
// every star root deterministically hooks onto the MINIMUM-labeled
// neighboring component, which is HCS's CREW-style min-reduction over
// candidate edges (realized here with an atomic min loop).
//
// The paper reports that "our modified HCS algorithm for spanning tree
// results in similar complexities and running time as that of SV", and
// drops it from the plots; HCS stays so the reproduction can confirm
// that observation (see the HCS-vs-SV benchmark).

import (
	"sync/atomic"

	"spantree/internal/graph"
	"spantree/internal/par"
)

// noKey marks an empty candidate key: it is larger than any vertex id.
const noKey = int64(1) << 40

// HCS runs the HCS-style algorithm and returns the forest as a parent
// array plus statistics.
func HCS(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	n := g.NumVertices()
	d := singletons(n)
	// Per-root candidate minima. Packing root and arc into one atomic
	// word is impossible (needs 31+62 bits), so keys holds the target
	// root and arcs the packed arc, and the apply phase tolerates the
	// benign race between a key update and its arc update by
	// re-validating the arc's roots.
	keys := make([]int64, n)
	arcs := make([]int64, n)

	var stats Stats
	edges, err := run(opt, n+2, func(c *par.Ctx, maxIter int) []graph.Edge {
		probe := c.Probe()
		var grafts []graph.Edge
		c.ForDynamic(n, func(i int) { keys[i] = noKey })
		c.Barrier()

		for iter := 0; iter < maxIter; iter++ {
			// Phase A: every arc proposes; each root keeps the minimum
			// target root seen (atomic min on keys[rv]).
			c.ForDynamic(n, func(vi int) {
				v := graph.VID(vi)
				probe.NonContig(1)
				rv := d[v]
				nb := g.Neighbors(v)
				probe.Contig(int64(len(nb)))
				for _, w := range nb {
					probe.NonContig(2)
					rw := d[w]
					if rw >= rv || d[rv] != rv {
						continue
					}
					// Atomic min loop on the candidate key.
					for {
						cur := atomic.LoadInt64(&keys[rv])
						if int64(rw) >= cur {
							break
						}
						probe.NonContig(1)
						if atomic.CompareAndSwapInt64(&keys[rv], cur, int64(rw)) {
							atomic.StoreInt64(&arcs[rv], PackArc(v, w))
							break
						}
					}
				}
			})
			c.Barrier()

			// Phase B: apply grafts. The arc slot may lag its key slot by
			// one writer (the benign publication race above), so the arc
			// is re-validated: it must connect r's component to a smaller
			// root; any such arc is a correct graft even if it is not the
			// exact minimum, preserving HCS's invariants.
			grafted := false
			c.ForDynamic(n, func(ri int) {
				r := graph.VID(ri)
				probe.NonContig(1)
				if atomic.LoadInt64(&keys[r]) == noKey {
					return
				}
				v, w := UnpackArc(atomic.LoadInt64(&arcs[r]))
				probe.NonContig(2)
				target := atomic.LoadInt32(&d[w])
				if atomic.LoadInt32(&d[v]) == int32(r) && target < int32(r) {
					atomic.StoreInt32(&d[r], target)
					grafts = append(grafts, graph.Edge{U: v, V: w})
					grafted = true
				}
				keys[r] = noKey
			})
			anyGraft := c.ReduceOr(grafted)
			if c.TID() == 0 {
				stats.Iterations = iter + 1
			}
			if !anyGraft {
				break
			}

			// Phase C: full shortcut to stars.
			rounds := Shortcut(c, d)
			if c.TID() == 0 {
				stats.ShortcutRounds += rounds
			}
		}
		return grafts
	})
	if err != nil {
		return nil, Stats{}, err
	}
	stats.Grafts = len(edges)
	return Root(n, edges, opt.Model.Probe(0)), stats, nil
}
