// Package spansv is the graft-and-shortcut family of PRAM connectivity
// algorithms adapted to spanning trees on an SMP, the paper's parallel
// baselines:
//
//   - Shiloach-Vishkin (SV, SpanningForest), the principal baseline the
//     paper measures against, with a compare-and-swap or, for the
//     ablation, a per-root lock election;
//   - Hirschberg-Chandra-Sarwate (HCS), which the paper found to "result
//     in similar complexities and running time as that of SV";
//   - Awerbuch-Shiloach (AS) and random mating, the other members of the
//     family the paper surveys from Greiner's experimental study.
//
// Every member keeps each component as a rooted tree in a label array
// D, grafts roots onto neighboring components along graph edges, and
// shortcuts the trees by pointer jumping. The grafted edges, collected
// per worker, are the spanning forest. The members differ in how they
// choose grafts and how often they shortcut, which each member's file
// (sv.go, hcs.go, as.go, mating.go) documents. spansv.go holds what
// they share: the run options and their validation, the team, the
// packed-arc election encoding, the pointer-jump pass and the rooting
// of the grafted edges.
package spansv

import (
	"fmt"
	"slices"
	"sync/atomic"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
	"spantree/internal/spanseq"
)

// Options configures a run of any member of the family.
type Options struct {
	// NumProcs is the number of virtual processors p (>= 1).
	NumProcs int
	// Model, when non-nil, accumulates Helman-JáJá cost counters.
	Model *smpmodel.Model
	// Obs, when non-nil, receives barrier waits/episodes and drain
	// counters from the team; SV also records per-worker EdgesScanned
	// for election scans and VerticesClaimed for grafts won.
	Obs *obs.Recorder
	// MaxIterations caps the graft iterations (random mating's rounds).
	// 0 means the member's default: n+2 for SV and HCS and 2n+4 for AS,
	// which always suffice (every productive iteration removes a root or
	// shortens a tree), and 4·ceil(log2(n+1))+32 rounds for random
	// mating, far above the expected need. Tests use small caps to
	// exercise early termination.
	MaxIterations int
	// Cancel is the run's cooperative stop flag (nil never trips); the
	// team polls it at every barrier entry and ForDynamic chunk
	// boundary, and a tripped run returns the flag's typed error.
	Cancel *fault.Flag
	// Chaos is the fault injector (nil, and compiled to no-ops in
	// default builds, injects nothing).
	Chaos *chaos.Injector
}

// run validates o and runs body on one team of o.NumProcs workers. Each
// worker's body receives the iteration cap (def when o.MaxIterations is
// 0) and returns the graph edges that worker grafted; run joins them in
// worker order.
func run(o Options, def int, body func(c *par.Ctx, maxIter int) []graph.Edge) ([]graph.Edge, error) {
	if o.NumProcs < 1 {
		return nil, fmt.Errorf("spansv: NumProcs = %d, need >= 1", o.NumProcs)
	}
	if o.MaxIterations < 0 {
		return nil, fmt.Errorf("spansv: MaxIterations = %d, need >= 0", o.MaxIterations)
	}
	maxIter := o.MaxIterations
	if maxIter == 0 {
		maxIter = def
	}
	grafts := make([][]graph.Edge, o.NumProcs)
	team := par.NewTeam(o.NumProcs, o.Model).Observe(o.Obs).Cancel(o.Cancel).Chaos(o.Chaos)
	if err := team.RunErr(func(c *par.Ctx) {
		grafts[c.TID()] = body(c, maxIter)
	}); err != nil {
		return nil, err
	}
	return slices.Concat(grafts...), nil
}

// singletons returns the label array of n singleton components.
func singletons(n int) []int32 {
	d := make([]int32, n)
	for i := range d {
		d[i] = int32(i)
	}
	return d
}

// NoArc marks an empty election slot.
const NoArc = int64(-1)

// PackArc packs the arc (v, w) into one int64, so that a single
// compare-and-swap on a root's slot elects the arc it grafts along.
func PackArc(v, w graph.VID) int64 {
	return int64(uint64(uint32(v))<<32 | uint64(uint32(w)))
}

// UnpackArc is the inverse of PackArc.
func UnpackArc(x int64) (v, w graph.VID) {
	return graph.VID(uint32(uint64(x) >> 32)), graph.VID(uint32(uint64(x)))
}

// Shortcut flattens every tree of d to a rooted star by pointer jumping
// until a round changes nothing ("always shortcut the tree to rooted
// star"), and returns the number of rounds. This is where SV's extra
// log n factor of non-contiguous accesses lives. Every worker of the
// team must call it.
func Shortcut(c *par.Ctx, d []int32) int {
	rounds := 1
	for jump(c, d) {
		rounds++
	}
	return rounds
}

// jump is one pointer-jumping round, d[v] = d[d[v]] for every v. It
// reports whether the round changed any label on the team.
func jump(c *par.Ctx, d []int32) bool {
	probe := c.Probe()
	changed := false
	c.ForDynamic(len(d), func(v int) {
		probe.NonContig(2) // load D[v], load D[D[v]]
		dv := atomic.LoadInt32(&d[v])
		ddv := atomic.LoadInt32(&d[dv])
		if dv != ddv {
			atomic.StoreInt32(&d[v], ddv)
			changed = true
		}
	})
	return c.ReduceOr(changed)
}

// Root roots the forest that the grafted edges span on n vertices and
// returns it as a parent array. It is O(n) work on top of the parallel
// phase, charged to probe (processor 0's, or nil for no charge) as two
// non-contiguous accesses per edge.
func Root(n int, edges []graph.Edge, probe *smpmodel.Probe) []graph.VID {
	treeAdj := make([][]graph.VID, n)
	for _, e := range edges {
		treeAdj[e.U] = append(treeAdj[e.U], e.V)
		treeAdj[e.V] = append(treeAdj[e.V], e.U)
	}
	probe.NonContig(int64(2 * len(edges)))
	return spanseq.RootForest(n, treeAdj)
}
