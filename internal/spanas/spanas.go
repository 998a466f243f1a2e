// Package spanas implements the textbook Awerbuch-Shiloach connectivity
// algorithm adapted to spanning trees — the second member of the
// graft-and-shortcut family the paper surveys ("Shiloach and Vishkin and
// Awerbuch and Shiloach developed algorithms that run in O(log n) time
// with O((m+n) log n) work").
//
// Where the paper's SV adaptation (package spansv) shortcuts every tree
// to a rooted star after each graft round, Awerbuch-Shiloach performs
// exactly one pointer-jump per iteration and instead maintains explicit
// star flags, with two hook sub-steps per iteration:
//
//  1. conditional star hook: a star root hooks onto a smaller-labeled
//     neighboring component;
//  2. unconditional star hook: a star that is *still* a star after
//     sub-step 1 (i.e. was stagnant and received no hooks) hooks onto
//     any neighboring component.
//
// Recomputing the star flags between the sub-steps is what makes the
// unconditional hook acyclic: a component that was hooked into during
// sub-step 1 has depth two and is no longer a star, so two components
// can never unconditionally hook onto each other in the same iteration.
//
// The priority-CRCW writes of the PRAM original become CAS elections per
// root, the same SMP adaptation the paper applies to SV.
package spanas

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
	// NumProcs is the number of virtual processors (>= 1).
	NumProcs int
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
	// MaxIterations caps iterations; 0 means 2n+4 (always sufficient:
	// every iteration either hooks or halves some tree height).
	MaxIterations int
	// Cancel is the run's cooperative stop flag (nil never trips);
	// Chaos the fault injector (nil injects nothing).
	Cancel *fault.Flag
	Chaos  *chaos.Injector
}

// Stats reports what a run did.
type Stats struct {
	// Iterations counts hook-and-jump iterations.
	Iterations int
	// ConditionalHooks and UnconditionalHooks split the grafts by the
	// sub-step that performed them.
	ConditionalHooks   int
	UnconditionalHooks int
}

const nobody = int64(-1)

func packArc(v, w graph.VID) int64 {
	return int64(uint64(uint32(v))<<32 | uint64(uint32(w)))
}

func unpackArc(x int64) (v, w graph.VID) {
	return graph.VID(uint32(uint64(x) >> 32)), graph.VID(uint32(uint64(x)))
}

// SpanningForest runs Awerbuch-Shiloach and returns the forest as a
// parent array plus statistics.
func SpanningForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("spanas: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	n := g.NumVertices()
	maxIter := opt.MaxIterations
	if maxIter == 0 {
		maxIter = 2*n + 4
	}

	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	star := make([]int32, n) // 1 = vertex is in a star
	// changed[r] marks roots whose component hooked or was hooked into
	// during sub-step 1 of the current iteration. The unconditional
	// sub-step may only move *unchanged* stars: a singleton hooking onto
	// a star keeps the target depth-1 (still a star!), and without this
	// flag two such stars could unconditionally hook onto each other,
	// forming a 2-cycle. Adjacent unchanged stars cannot both exist —
	// the larger-rooted one would have hooked conditionally — so the
	// unconditional hooks of unchanged stars always land in components
	// that do not hook this sub-step, keeping the hook digraph acyclic.
	changed := make([]int32, n)
	winner := make([]int64, n)

	team := par.NewTeam(opt.NumProcs, opt.Model).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	edgeBufs := make([][]graph.Edge, opt.NumProcs)
	condBufs := make([]int, opt.NumProcs)
	uncondBufs := make([]int, opt.NumProcs)
	iterations := 0

	// detectStars recomputes star[v] for all v: v is in a star iff its
	// root's whole tree has depth <= 1. Classic three-pass detection.
	detectStars := func(c *par.Ctx, probe *smpmodel.Probe) {
		c.ForDynamic(n, func(i int) {
			star[i] = 1
			probe.NonContig(1)
		})
		c.Barrier()
		c.ForDynamic(n, func(vi int) {
			v := graph.VID(vi)
			probe.NonContig(2)
			dv := d[v]
			ddv := d[dv]
			if dv != ddv {
				// v is at depth >= 2: neither v's root-chain nor the
				// grandparent's component is a star.
				atomic.StoreInt32(&star[v], 0)
				atomic.StoreInt32(&star[ddv], 0)
				probe.NonContig(2)
			}
		})
		c.Barrier()
		c.ForDynamic(n, func(vi int) {
			v := graph.VID(vi)
			probe.NonContig(1)
			if atomic.LoadInt32(&star[d[v]]) == 0 {
				atomic.StoreInt32(&star[v], 0)
			}
		})
		c.Barrier()
	}

	// hookStep runs one election + apply pass. unconditional selects the
	// sub-step rule.
	hookStep := func(c *par.Ctx, probe *smpmodel.Probe, unconditional bool,
		myEdges *[]graph.Edge, hooks *int) bool {
		c.ForDynamic(n, func(vi int) {
			v := graph.VID(vi)
			probe.NonContig(2)
			if atomic.LoadInt32(&star[v]) == 0 {
				return
			}
			rv := d[v]
			if unconditional && atomic.LoadInt32(&changed[rv]) != 0 {
				return // only unchanged stars may hook unconditionally
			}
			nb := g.Neighbors(v)
			probe.Contig(int64(len(nb)))
			for _, w := range nb {
				probe.NonContig(2)
				rw := d[w]
				if unconditional {
					if rw == rv {
						continue
					}
				} else if rw >= rv {
					continue
				}
				probe.NonContig(1)
				if atomic.CompareAndSwapInt64(&winner[rv], nobody, packArc(v, w)) {
					break
				}
			}
		})
		c.Barrier()
		hooked := false
		c.ForDynamic(n, func(ri int) {
			r := graph.VID(ri)
			probe.NonContig(1)
			arc := winner[r]
			if arc == nobody {
				return
			}
			v, w := unpackArc(arc)
			probe.NonContig(2)
			target := atomic.LoadInt32(&d[w])
			atomic.StoreInt32(&d[r], target)
			// Mark both sides: the hooked root and the (depth-1) target
			// root it now hangs under. Deeper stale targets are excluded
			// by the star recomputation instead.
			atomic.StoreInt32(&changed[r], 1)
			atomic.StoreInt32(&changed[target], 1)
			*myEdges = append(*myEdges, graph.Edge{U: v, V: w})
			*hooks++
			hooked = true
			winner[r] = nobody
		})
		return c.ReduceOr(hooked)
	}

	err := team.RunErr(func(c *par.Ctx) {
		probe := c.Probe()
		var myEdges []graph.Edge
		cond, uncond := 0, 0
		defer func() {
			edgeBufs[c.TID()] = myEdges
			condBufs[c.TID()] = cond
			uncondBufs[c.TID()] = uncond
		}()
		c.ForDynamic(n, func(i int) { winner[i] = nobody })
		c.Barrier()

		for iter := 0; iter < maxIter; iter++ {
			c.ForDynamic(n, func(i int) {
				changed[i] = 0
				probe.NonContig(1)
			})
			detectStars(c, probe)
			hooked1 := hookStep(c, probe, false, &myEdges, &cond)

			// Stars must be recomputed before the unconditional sub-step:
			// a star that received hooks in sub-step 1 is no longer a
			// star, which is exactly what prevents mutual hooks.
			detectStars(c, probe)
			hooked2 := hookStep(c, probe, true, &myEdges, &uncond)

			// One pointer-jump per iteration.
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
			anyChange := c.ReduceOr(changed)
			if c.TID() == 0 {
				iterations = iter + 1
			}
			if !hooked1 && !hooked2 && !anyChange {
				// All trees are stars and no star has a cross edge (the
				// unconditional hook would have taken it): converged.
				return
			}
		}
	})
	if err != nil {
		return nil, Stats{}, err
	}

	var stats Stats
	stats.Iterations = iterations
	var edges []graph.Edge
	for i := range edgeBufs {
		edges = append(edges, edgeBufs[i]...)
		stats.ConditionalHooks += condBufs[i]
		stats.UnconditionalHooks += uncondBufs[i]
	}
	treeAdj := make([][]graph.VID, n)
	for _, e := range edges {
		treeAdj[e.U] = append(treeAdj[e.U], e.V)
		treeAdj[e.V] = append(treeAdj[e.V], e.U)
	}
	opt.Model.Probe(0).NonContig(int64(2 * len(edges)))
	parent := spanseq.RootForest(n, treeAdj)
	return parent, stats, nil
}
