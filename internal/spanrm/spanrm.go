// Package spanrm implements a random-mating connectivity algorithm
// adapted to spanning trees, the Reif/Phillips-style baseline family
// from Greiner's experimental study that the paper surveys ("Greiner
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
package spanrm

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
	// Seed drives the coin flips.
	Seed uint64
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
	// MaxRounds caps mating rounds; 0 means 4*ceil(log2 n)+32, far above
	// the expected need (the cap exists to bound pathological seeds).
	MaxRounds int
	// Cancel is the run's cooperative stop flag (nil never trips);
	// Chaos the fault injector (nil injects nothing).
	Cancel *fault.Flag
	Chaos  *chaos.Injector
}

// Stats reports what a run did.
type Stats struct {
	// Rounds is the number of mating rounds executed.
	Rounds int
	// Hooks is the number of hook operations == emitted tree edges.
	Hooks int
}

const nobody = int64(-1)

func packArc(v, w graph.VID) int64 {
	return int64(uint64(uint32(v))<<32 | uint64(uint32(w)))
}

func unpackArc(x int64) (v, w graph.VID) {
	return graph.VID(uint32(uint64(x) >> 32)), graph.VID(uint32(uint64(x)))
}

// SpanningForest runs random mating and returns the forest as a parent
// array plus statistics.
func SpanningForest(g *graph.Graph, opt Options) ([]graph.VID, Stats, error) {
	if opt.NumProcs < 1 {
		return nil, Stats{}, fmt.Errorf("spanrm: NumProcs = %d, need >= 1", opt.NumProcs)
	}
	n := g.NumVertices()
	maxRounds := opt.MaxRounds
	if maxRounds == 0 {
		maxRounds = 32
		for 1<<((maxRounds-32)/4) < n+1 {
			maxRounds += 4
		}
	}

	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	coin := make([]bool, n) // true = heads: this root accepts hooks
	winner := make([]int64, n)

	team := par.NewTeam(opt.NumProcs, opt.Model).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	edgeBufs := make([][]graph.Edge, opt.NumProcs)
	rounds := 0
	stalled := false

	err := team.RunErr(func(c *par.Ctx) {
		probe := c.Probe()
		var myEdges []graph.Edge
		defer func() { edgeBufs[c.TID()] = myEdges }()
		c.ForDynamic(n, func(i int) { winner[i] = nobody })
		c.Barrier()

		for round := 0; round < maxRounds; round++ {
			// Phase 0: every root flips a coin. Flips are a deterministic
			// function of (seed, round, vertex) so the result does not
			// depend on which processor owns the vertex.
			c.ForDynamic(n, func(vi int) {
				probe.NonContig(1)
				coin[vi] = flip(opt.Seed, uint64(round), uint64(vi))
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
					if atomic.CompareAndSwapInt64(&winner[rv], nobody, packArc(v, w)) {
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
				if arc == nobody {
					return
				}
				v, w := unpackArc(arc)
				probe.NonContig(2)
				atomic.StoreInt32(&d[r], atomic.LoadInt32(&d[w]))
				myEdges = append(myEdges, graph.Edge{U: v, V: w})
				hooked = true
				winner[r] = nobody
			})
			anyHook := c.ReduceOr(hooked)
			if c.TID() == 0 {
				rounds = round + 1
			}

			// Phase 3: flatten to stars.
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
				if !c.ReduceOr(changed) {
					break
				}
			}

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
					return
				}
			}
		}
		if c.TID() == 0 {
			stalled = true
		}
	})
	if err != nil {
		return nil, Stats{}, err
	}

	var stats Stats
	stats.Rounds = rounds
	var edges []graph.Edge
	for _, eb := range edgeBufs {
		edges = append(edges, eb...)
	}
	stats.Hooks = len(edges)
	treeAdj := make([][]graph.VID, n)
	for _, e := range edges {
		treeAdj[e.U] = append(treeAdj[e.U], e.V)
		treeAdj[e.V] = append(treeAdj[e.V], e.U)
	}
	opt.Model.Probe(0).NonContig(int64(2 * len(edges)))
	parent := spanseq.RootForest(n, treeAdj)
	if stalled {
		return parent, stats, fmt.Errorf("spanrm: did not converge in %d rounds", maxRounds)
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
