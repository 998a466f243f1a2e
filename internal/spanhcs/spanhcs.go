// Package spanhcs implements a Hirschberg-Chandra-Sarwate (HCS) style
// connectivity algorithm adapted to spanning trees on an SMP, the second
// PRAM baseline the paper implemented. HCS differs from Shiloach-Vishkin
// in how grafts are chosen: instead of an arbitrary-winner election,
// every star root deterministically hooks onto the MINIMUM-labeled
// neighboring component, which is HCS's CREW-style min-reduction over
// candidate edges (realized here with an atomic min loop).
//
// The paper reports that "our modified HCS algorithm for spanning tree
// results in similar complexities and running time as that of SV", and
// drops it from the plots; this package exists so the reproduction can
// confirm that observation (see the HCS-vs-SV benchmark).
package spanhcs

import (
	"fmt"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
	"spantree/internal/spanseq"
)

// Options configures a run.
type Options struct {
	// NumProcs is the number of virtual processors p (>= 1).
	NumProcs int
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
	// MaxIterations caps iterations; 0 means n+2 (always sufficient).
	MaxIterations int
	// Cancel is the run's cooperative stop flag (nil never trips);
	// Chaos the fault injector (nil injects nothing).
	Cancel *fault.Flag
	Chaos  *chaos.Injector
}

// Stats reports what a run did.
type Stats struct {
	Iterations     int
	ShortcutRounds int
	Grafts         int
}

// best packs a candidate (targetRoot, v, w) into a single value ordered
// by targetRoot: lower targetRoot wins the atomic min. Layout:
// [ 2 bits zero | 31 bits targetRoot | ... ] — we use a 2-word scheme
// instead: key holds the target root, payload the arc; both are updated
// under a CAS loop on the key with the payload written before the key is
// published, re-checked by the apply phase.
type best struct {
	key int64 // target root, or none
	arc int64 // packed (v, w)
}

const none = int64(1) << 40 // larger than any vertex id

func packArc(v, w graph.VID) int64 {
	return int64(uint64(uint32(v))<<32 | uint64(uint32(w)))
}

func unpackArc(x int64) (v, w graph.VID) {
	return graph.VID(uint32(uint64(x) >> 32)), graph.VID(uint32(uint64(x)))
}

// SpanningForest runs the HCS-style algorithm and returns the forest as
// a parent array plus statistics.
func SpanningForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("spanhcs: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	n := g.NumVertices()
	maxIter := opt.MaxIterations
	if maxIter == 0 {
		maxIter = n + 2
	}

	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	// Per-root candidate minima. Packing root and arc into one atomic
	// word is impossible (needs 31+62 bits), so the apply phase re-reads
	// the winning arc and tolerates the benign race between a key update
	// and its arc update by re-validating the arc's roots.
	keys := make([]int64, n)
	arcs := make([]int64, n)

	team := par.NewTeam(opt.NumProcs, opt.Model).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	edgeBufs := make([][]graph.Edge, opt.NumProcs)
	iterations, rounds := 0, 0

	err := team.RunErr(func(c *par.Ctx) {
		probe := c.Probe()
		var myEdges []graph.Edge
		c.ForDynamic(n, func(i int) { keys[i] = none })
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
							atomic.StoreInt64(&arcs[rv], packArc(v, w))
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
				if atomic.LoadInt64(&keys[r]) == none {
					return
				}
				v, w := unpackArc(atomic.LoadInt64(&arcs[r]))
				probe.NonContig(2)
				target := atomic.LoadInt32(&d[w])
				if d[v] == int32(r) && target < int32(r) {
					atomic.StoreInt32(&d[r], target)
					myEdges = append(myEdges, graph.Edge{U: v, V: w})
					grafted = true
				}
				keys[r] = none
			})
			anyGraft := c.ReduceOr(grafted)
			if c.TID() == 0 {
				iterations = iter + 1
			}
			if !anyGraft {
				break
			}

			// Phase C: full shortcut to stars by pointer jumping.
			for {
				changed := false
				c.ForDynamic(n, func(vi int) {
					v := graph.VID(vi)
					probe.NonContig(2)
					dv := atomic.LoadInt32(&d[v])
					ddv := atomic.LoadInt32(&d[dv])
					if dv != ddv {
						atomic.StoreInt32(&d[v], ddv)
						changed = true
					}
				})
				if c.TID() == 0 {
					rounds++
				}
				if !c.ReduceOr(changed) {
					break
				}
			}
		}
		edgeBufs[c.TID()] = myEdges
	})
	if err != nil {
		return nil, Stats{}, err
	}

	var stats Stats
	stats.Iterations = iterations
	stats.ShortcutRounds = rounds
	for _, eb := range edgeBufs {
		stats.Grafts += len(eb)
	}
	treeAdj := make([][]graph.VID, n)
	for _, eb := range edgeBufs {
		for _, e := range eb {
			treeAdj[e.U] = append(treeAdj[e.U], e.V)
			treeAdj[e.V] = append(treeAdj[e.V], e.U)
		}
	}
	opt.Model.Probe(0).NonContig(int64(2 * stats.Grafts))
	parent := spanseq.RootForest(n, treeAdj)
	return parent, stats, nil
}
