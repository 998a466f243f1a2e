package gen

import (
	"fmt"

	"spantree/internal/graph"
)

// Chain returns the degenerate chain (path) graph 0-1-2-...-(n-1), the
// paper's pathological low-connectivity input: diameter n-1, every
// interior vertex of degree 2. Row-major ("sequential") labeling; apply
// graph.RandomRelabel for the paper's random-labeling variant.
func Chain(n int) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: Chain(%d) with negative n", n))
	}
	b := graph.NewBuilder(n)
	b.Reserve(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VID(i-1), graph.VID(i))
	}
	g := b.Build()
	g.Name = fmt.Sprintf("chain-n%d", n)
	return g
}

// Cycle returns the n-cycle 0-1-...-(n-1)-0.
func Cycle(n int) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: Cycle(%d) with negative n", n))
	}
	b := graph.NewBuilder(n)
	b.Reserve(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VID(i-1), graph.VID(i))
	}
	if n > 2 {
		b.AddEdge(graph.VID(n-1), 0)
	}
	g := b.Build()
	g.Name = fmt.Sprintf("cycle-n%d", n)
	return g
}

// Star returns the star with center 0 and n-1 leaves — the extreme
// load-imbalance shape from the paper's Fig. 2 discussion.
func Star(n int) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: Star(%d) with negative n", n))
	}
	b := graph.NewBuilder(n)
	b.Reserve(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, graph.VID(i))
	}
	g := b.Build()
	g.Name = fmt.Sprintf("star-n%d", n)
	return g
}

// Complete returns the complete graph K_n.
func Complete(n int) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: Complete(%d) with negative n", n))
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.VID(i), graph.VID(j))
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("complete-n%d", n)
	return g
}

// BinaryTree returns the complete binary tree on n vertices in heap
// order: vertex i has children 2i+1 and 2i+2.
func BinaryTree(n int) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: BinaryTree(%d) with negative n", n))
	}
	b := graph.NewBuilder(n)
	b.Reserve(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VID((i-1)/2), graph.VID(i))
	}
	g := b.Build()
	g.Name = fmt.Sprintf("bintree-n%d", n)
	return g
}

// Caterpillar returns a caterpillar graph: a spine path of ceil(n/2)
// vertices with a leaf hanging off each spine vertex until n vertices
// are used. Mixes the chain's low connectivity with degree-3 spine
// vertices, defeating pure degree-2 elimination.
func Caterpillar(n int) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: Caterpillar(%d) with negative n", n))
	}
	b := graph.NewBuilder(n)
	b.Reserve(n)
	spine := (n + 1) / 2
	for i := 1; i < spine; i++ {
		b.AddEdge(graph.VID(i-1), graph.VID(i))
	}
	for i := spine; i < n; i++ {
		b.AddEdge(graph.VID(i-spine), graph.VID(i))
	}
	g := b.Build()
	g.Name = fmt.Sprintf("caterpillar-n%d", n)
	return g
}
