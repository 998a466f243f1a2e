package graph

import (
	"fmt"

	"spantree/internal/xrand"
)

// Relabel returns an isomorphic copy of g in which old vertex v becomes
// perm[v]. perm must be a permutation of [0, n); Relabel panics
// otherwise, since callers construct perms programmatically.
//
// Vertex labeling matters experimentally: the paper shows that
// Shiloach-Vishkin's iteration count — and therefore its running time —
// depends strongly on the labeling (row-major torus vs randomly labeled
// torus, sequential vs random chain), while the work-stealing algorithm
// is labeling-insensitive.
func Relabel(g *Graph, perm []VID) *Graph {
	n := g.NumVertices()
	if len(perm) != n {
		panic(fmt.Sprintf("graph: Relabel perm length %d != n %d", len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || int(p) >= n || seen[p] {
			panic(fmt.Sprintf("graph: Relabel perm is not a permutation (value %d)", p))
		}
		seen[p] = true
	}
	b := NewBuilder(n)
	b.Reserve(g.NumEdges())
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(VID(v)) {
			if VID(v) < w {
				b.AddEdge(perm[v], perm[w])
			}
		}
	}
	h := b.Build()
	h.Name = g.Name + "+relabel"
	return h
}

// RandomRelabel relabels g by a seed-determined random permutation.
func RandomRelabel(g *Graph, seed uint64) *Graph {
	perm := xrand.New(seed).Perm(g.NumVertices())
	h := Relabel(g, perm)
	h.Name = g.Name + "+randlabel"
	return h
}

// BFSOrderRelabel relabels g so that vertices are numbered in BFS
// discovery order from vertex 0 (unreached vertices keep relative order
// after all reached ones). This produces a locality-friendly labeling,
// the analogue of the paper's "sequential" labelings.
func BFSOrderRelabel(g *Graph) *Graph {
	n := g.NumVertices()
	perm := make([]VID, n)
	for i := range perm {
		perm[i] = None
	}
	next := VID(0)
	queue := make([]VID, 0, n)
	for s := 0; s < n; s++ {
		if perm[s] != None {
			continue
		}
		perm[s] = next
		next++
		queue = append(queue[:0], VID(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if perm[w] == None {
					perm[w] = next
					next++
					queue = append(queue, w)
				}
			}
		}
	}
	h := Relabel(g, perm)
	h.Name = g.Name + "+bfslabel"
	return h
}
