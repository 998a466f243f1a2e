// Package spanseq implements the sequential spanning-tree baselines: the
// breadth-first traversal the paper uses as its "Sequential" reference
// line (the best sequential algorithm, O(m+n) with a very small hidden
// constant), an iterative depth-first variant, and a union-find sweep.
// All return spanning forests as parent arrays: parent[v] == graph.None
// marks a root (one per connected component); every other vertex's
// parent edge {v, parent[v]} is a tree edge.
package spanseq

import (
	"spantree/internal/graph"
	"spantree/internal/smpmodel"
)

// BFS computes a spanning forest by repeated breadth-first search. probe
// may be nil; when set it is charged with the fused-array operation
// counts: one non-contiguous access to visit each vertex, one per
// directed arc (the visited-check reads parent[w] directly), and one per
// discovered child (the parent write). The paper counts two accesses per
// arc for a two-array BFS; the reproduction fuses the visited bit into
// the parent array in both this baseline and the parallel traversal, so
// the modeled speedup compares equal per-vertex layouts. The offsets
// differ: this baseline reads the Graph's 8-byte offsets (NonContig),
// the parallel traversal the 4-byte ones of its compact mirror
// (smpmodel NonContigCompact). Roots carry a self-parent sentinel that
// one final pass rewrites to graph.None, unlike the parallel traversal,
// which claims roots as graph.None against a private unclaimed
// sentinel. The baseline keeps its sentinel and pass as the fixed
// yardstick every speedup is measured against.
func BFS(g *graph.Graph, probe *smpmodel.Probe) []graph.VID {
	n := g.NumVertices()
	parent := make([]graph.VID, n)
	for i := range parent {
		parent[i] = graph.None
	}
	queue := make([]graph.VID, 0, 1024)
	for s := 0; s < n; s++ {
		if parent[s] != graph.None {
			continue
		}
		parent[s] = graph.VID(s) // self-parent root sentinel
		queue = append(queue[:0], graph.VID(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			probe.NonContig(1) // visit v: load adjacency offset
			nb := g.Neighbors(v)
			probe.Contig(int64(len(nb))) // stream the adjacency list
			for _, w := range nb {
				probe.NonContig(1) // fused visited-check on parent[w]
				if parent[w] == graph.None {
					parent[w] = v
					probe.NonContig(1) // claim: parent write
					queue = append(queue, w)
				}
			}
		}
	}
	normalizeRoots(parent, probe)
	return parent
}

// normalizeRoots rewrites the self-parent root sentinel back to
// graph.None, restoring the public forest representation: one streaming
// pass, kept as part of the baselines' fixed cost (see BFS).
func normalizeRoots(parent []graph.VID, probe *smpmodel.Probe) {
	for v := range parent {
		if parent[v] == graph.VID(v) {
			parent[v] = graph.None
		}
	}
	probe.Contig(int64(len(parent)))
}

// DFS computes a spanning forest by iterative depth-first search (an
// explicit stack; recursion would overflow on the paper's degenerate
// chain inputs). It uses the same root sentinel and final pass as BFS.
func DFS(g *graph.Graph, probe *smpmodel.Probe) []graph.VID {
	n := g.NumVertices()
	parent := make([]graph.VID, n)
	for i := range parent {
		parent[i] = graph.None
	}
	stack := make([]graph.VID, 0, 1024)
	for s := 0; s < n; s++ {
		if parent[s] != graph.None {
			continue
		}
		parent[s] = graph.VID(s) // self-parent root sentinel
		stack = append(stack[:0], graph.VID(s))
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			probe.NonContig(1)
			nb := g.Neighbors(v)
			probe.Contig(int64(len(nb)))
			for _, w := range nb {
				probe.NonContig(1) // fused visited-check on parent[w]
				if parent[w] == graph.None {
					parent[w] = v
					probe.NonContig(1) // claim: parent write
					stack = append(stack, w)
				}
			}
		}
	}
	normalizeRoots(parent, probe)
	return parent
}

// UnionFind computes a spanning forest by scanning the edge list once
// through a disjoint-set structure (Kruskal without weights). The
// resulting tree-edge set is converted into a parent array by a BFS over
// the selected edges.
func UnionFind(g *graph.Graph, probe *smpmodel.Probe) []graph.VID {
	n := g.NumVertices()
	uf := graph.NewUnionFind(n)
	// Collect tree edges as an adjacency structure for rooting.
	treeAdj := make([][]graph.VID, n)
	for v := 0; v < n; v++ {
		probe.NonContig(1)
		nb := g.Neighbors(graph.VID(v))
		probe.Contig(int64(len(nb)))
		for _, w := range nb {
			if graph.VID(v) >= w {
				continue
			}
			probe.NonContig(2) // two Finds, amortized
			if uf.Union(graph.VID(v), w) {
				treeAdj[v] = append(treeAdj[v], w)
				treeAdj[w] = append(treeAdj[w], graph.VID(v))
			}
		}
	}
	return RootForest(n, treeAdj)
}

// RootForest converts an undirected forest given as adjacency lists into
// a parent array by BFS from the smallest vertex of each component.
func RootForest(n int, treeAdj [][]graph.VID) []graph.VID {
	parent := make([]graph.VID, n)
	visited := make([]bool, n)
	for i := range parent {
		parent[i] = graph.None
	}
	queue := make([]graph.VID, 0, 1024)
	for s := 0; s < n; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], graph.VID(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range treeAdj[v] {
				if !visited[w] {
					visited[w] = true
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
	}
	return parent
}
