package spansv

// Awerbuch-Shiloach (AS), the textbook member of the family the paper
// surveys ("Shiloach and Vishkin and Awerbuch and Shiloach developed
// algorithms that run in O(log n) time with O((m+n) log n) work").
//
// Where SV shortcuts every tree to a rooted star after each graft
// round, AS performs exactly one pointer jump per iteration and instead
// maintains explicit star flags, with two hook sub-steps per iteration:
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

import (
	"sync/atomic"

	"spantree/internal/graph"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
)

// ASStats reports what an Awerbuch-Shiloach run did.
type ASStats struct {
	// Iterations counts hook-and-jump iterations.
	Iterations int
	// ConditionalHooks and UnconditionalHooks split the grafts by the
	// sub-step that performed them.
	ConditionalHooks   int
	UnconditionalHooks int
}

// AwerbuchShiloach runs AS and returns the forest as a parent array plus
// statistics.
func AwerbuchShiloach(g *graph.Graph, opt Options) ([]graph.VID, ASStats, error) {
	n := g.NumVertices()
	d := singletons(n)
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
	var stats ASStats
	var condHooks atomic.Int64

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

	// hookStep runs one election + apply pass, appending the grafts it
	// applies. unconditional selects the sub-step rule.
	hookStep := func(c *par.Ctx, probe *smpmodel.Probe, unconditional bool,
		grafts *[]graph.Edge) bool {
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
				if atomic.CompareAndSwapInt64(&winner[rv], NoArc, PackArc(v, w)) {
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
			if arc == NoArc {
				return
			}
			v, w := UnpackArc(arc)
			probe.NonContig(2)
			target := atomic.LoadInt32(&d[w])
			atomic.StoreInt32(&d[r], target)
			// Mark both sides: the hooked root and the (depth-1) target
			// root it now hangs under. Deeper stale targets are excluded
			// by the star recomputation instead.
			atomic.StoreInt32(&changed[r], 1)
			atomic.StoreInt32(&changed[target], 1)
			*grafts = append(*grafts, graph.Edge{U: v, V: w})
			hooked = true
			winner[r] = NoArc
		})
		return c.ReduceOr(hooked)
	}

	edges, err := run(opt, 2*n+4, func(c *par.Ctx, maxIter int) []graph.Edge {
		probe := c.Probe()
		var grafts []graph.Edge
		cond := 0
		c.ForDynamic(n, func(i int) { winner[i] = NoArc })
		c.Barrier()

		for iter := 0; iter < maxIter; iter++ {
			c.ForDynamic(n, func(i int) {
				changed[i] = 0
				probe.NonContig(1)
			})
			detectStars(c, probe)
			before := len(grafts)
			hooked1 := hookStep(c, probe, false, &grafts)
			cond += len(grafts) - before

			// Stars must be recomputed before the unconditional sub-step:
			// a star that received hooks in sub-step 1 is no longer a
			// star, which is exactly what prevents mutual hooks.
			detectStars(c, probe)
			hooked2 := hookStep(c, probe, true, &grafts)

			// One pointer jump per iteration.
			anyChange := jump(c, d)
			if c.TID() == 0 {
				stats.Iterations = iter + 1
			}
			if !hooked1 && !hooked2 && !anyChange {
				// All trees are stars and no star has a cross edge (the
				// unconditional hook would have taken it): converged.
				break
			}
		}
		condHooks.Add(int64(cond))
		return grafts
	})
	if err != nil {
		return nil, ASStats{}, err
	}
	stats.ConditionalHooks = int(condHooks.Load())
	stats.UnconditionalHooks = len(edges) - stats.ConditionalHooks
	return Root(n, edges, opt.Model.Probe(0)), stats, nil
}
