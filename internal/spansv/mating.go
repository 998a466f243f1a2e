package spansv

// Random mating, the Reif/Phillips-style member of the family from
// Greiner's experimental study that the paper surveys ("Greiner
// implemented several connected components algorithms (Shiloach-Vishkin,
// Awerbuch-Shiloach, 'random-mating' based on the work of Reif and
// Phillips, and a hybrid of the previous three)").
//
// Each round every star root flips a coin. Tails-roots hook onto an
// adjacent heads-root (election by CAS, recording the graph edge used,
// like the SV adaptation), then all trees are flattened back to stars.
// Expected O(log n) rounds independent of the labeling — random mating
// trades SV's labeling sensitivity for coin flips, which the comparison
// benchmark demonstrates.

import (
	"fmt"
	"sync/atomic"

	"spantree/internal/graph"
	"spantree/internal/par"
)

// MatingStats reports what a random-mating run did.
type MatingStats struct {
	// Rounds is the number of mating rounds executed.
	Rounds int
	// Hooks is the number of hook operations == emitted tree edges.
	Hooks int
}

// RandomMating runs random mating with coin flips drawn from seed and
// returns the forest as a parent array plus statistics. A run that
// reaches the round cap (see Options.MaxIterations) returns its partial
// forest with an error.
func RandomMating(g *graph.Graph, opt Options, seed uint64) ([]graph.VID, MatingStats, error) {
	n := g.NumVertices()
	maxRounds := 32
	for 1<<((maxRounds-32)/4) < n+1 {
		maxRounds += 4
	}
	d := singletons(n)
	coin := make([]bool, n) // true = heads: this root accepts hooks
	winner := make([]int64, n)
	var stats MatingStats
	stalled := 0 // the round cap, once a run has reached it

	edges, err := run(opt, maxRounds, func(c *par.Ctx, maxIter int) []graph.Edge {
		probe := c.Probe()
		var grafts []graph.Edge
		c.ForDynamic(n, func(i int) { winner[i] = NoArc })
		c.Barrier()

		for round := 0; round < maxIter; round++ {
			// Phase 0: every root flips a coin. Flips are a deterministic
			// function of (seed, round, vertex) so the result does not
			// depend on which processor owns the vertex.
			c.ForDynamic(n, func(vi int) {
				probe.NonContig(1)
				coin[vi] = flip(seed, uint64(round), uint64(vi))
			})
			c.Barrier()

			// Phase 1: election. Arcs from tails-components to
			// heads-components propose; first CAS per tails-root wins.
			c.ForDynamic(n, func(vi int) {
				v := graph.VID(vi)
				probe.NonContig(1)
				rv := d[v]
				if d[rv] != rv || coin[rv] {
					return // not a root's vertex, or root is heads
				}
				nb := g.Neighbors(v)
				probe.Contig(int64(len(nb)))
				for _, w := range nb {
					probe.NonContig(2)
					rw := d[w]
					if rw == rv || !coin[rw] {
						continue
					}
					probe.NonContig(1)
					if atomic.CompareAndSwapInt64(&winner[rv], NoArc, PackArc(v, w)) {
						break
					}
				}
			})
			c.Barrier()

			// Phase 2: apply hooks (tails root -> heads root).
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
				atomic.StoreInt32(&d[r], atomic.LoadInt32(&d[w]))
				grafts = append(grafts, graph.Edge{U: v, V: w})
				hooked = true
				winner[r] = NoArc
			})
			anyHook := c.ReduceOr(hooked)
			if c.TID() == 0 {
				stats.Rounds = round + 1
			}

			// Phase 3: flatten to stars.
			shortcut(c, d)

			// Termination: no hooks this round AND no cross-component arcs
			// remain. A hookless round can be a coin-flip accident, so
			// explicitly test for remaining cross arcs.
			if !anyHook {
				remaining := false
				c.ForDynamic(n, func(vi int) {
					v := graph.VID(vi)
					probe.NonContig(1)
					for _, w := range g.Neighbors(v) {
						if d[v] != d[w] {
							remaining = true
							return
						}
					}
				})
				if !c.ReduceOr(remaining) {
					return grafts
				}
			}
		}
		if c.TID() == 0 {
			stalled = maxIter
		}
		return grafts
	})
	if err != nil {
		return nil, MatingStats{}, err
	}
	stats.Hooks = len(edges)
	parent := root(n, edges, opt.Model.Probe(0))
	if stalled > 0 {
		return parent, stats, fmt.Errorf("spansv: random mating did not converge in %d rounds", stalled)
	}
	return parent, stats, nil
}

// flip returns a deterministic pseudo-random coin for (seed, round, v).
func flip(seed, round, v uint64) bool {
	x := seed ^ (round+1)*0x9E3779B97F4A7C15 ^ (v+1)*0xBF58476D1CE4E5B9
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 29
	return x&1 == 1
}
