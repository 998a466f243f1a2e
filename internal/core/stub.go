package core

import (
	"sync/atomic"

	"spantree/internal/graph"
	"spantree/internal/smpmodel"
	"spantree/internal/xrand"
)

// stubSpanningTree implements step 1 of the algorithm: a single
// processor "generates a stub spanning tree, that is, a small portion of
// the spanning tree by randomly walking the graph for O(p) steps". The
// vertices claimed by the walk are returned in discovery order; the
// caller distributes them evenly over the processors' queues.
//
// The walk claims every unvisited vertex it steps onto, so the stub is a
// subtree of the final spanning tree (each stub vertex's parent is the
// walk position it was discovered from). The walk may revisit colored
// vertices without effect; it stops early only if it reaches a vertex
// with no neighbors.
//
// Claimed vertices are appended to stub (which may be nil); a pooled
// caller passes a buffer with capacity StubSteps+1 — the walk's maximum
// yield — so the step stays allocation-free.
func stubSpanningTree(t *traversal, r *xrand.Rand, probe *smpmodel.Probe, stub []graph.VID) []graph.VID {
	start := t.lo + graph.VID(r.Intn(t.n))
	t.claimSeq(start, graph.None)
	probe.NonContig(2)
	stub = append(stub, start)
	cur := start
	for step := 0; step < t.o.StubSteps; step++ {
		// The walk reads the team's compact view — adjacency ids global,
		// offsets local — so a shard's stub never leaves the shard.
		nb := t.cg.Neighbors32(cur - t.lo)
		probe.NonContig(1)
		if len(nb) == 0 {
			break
		}
		next := graph.VID(nb[r.Intn(len(nb))])
		probe.NonContig(2)
		if atomic.LoadInt32(&t.parent[next]) == graph.None {
			t.claimSeq(next, cur)
			stub = append(stub, next)
		}
		cur = next
	}
	return stub
}
