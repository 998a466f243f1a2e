package gen

import (
	"fmt"

	"spantree/internal/graph"
)

// Random returns a G(n, m) random graph: m unique undirected edges added
// uniformly at random to n vertices, the construction the paper adopts
// from LEDA ("we create a random graph of n vertices and m edges by
// randomly adding m unique edges to the vertex set"). Self-loops are
// never produced. If m exceeds the number of possible edges it is
// clamped.
func Random(n, m int, seed uint64) *graph.Graph {
	if n < 0 || m < 0 {
		panic(fmt.Sprintf("gen: Random(%d,%d) with negative parameter", n, m))
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	r := rng(seed, 'R')
	b := graph.NewBuilder(n)
	b.Reserve(m)
	seen := newEdgeSet(m)
	for added := 0; added < m; {
		u := r.Int31n(int32(n))
		v := r.Int31n(int32(n))
		if u != v && seen.add(u, v) {
			b.AddEdge(u, v)
			added++
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("random-n%d-m%d", n, m)
	return g
}

// RandomConnected returns a connected random graph: a uniformly random
// spanning tree backbone (random attachment order) plus extra random
// edges to reach m total. Used by tests and examples that need a single
// component; m < n-1 is raised to n-1.
func RandomConnected(n, m int, seed uint64) *graph.Graph {
	if n < 0 || m < 0 {
		panic(fmt.Sprintf("gen: RandomConnected(%d,%d) with negative parameter", n, m))
	}
	if n <= 1 {
		g := graph.NewBuilder(n).Build()
		g.Name = fmt.Sprintf("randconn-n%d-m0", n)
		return g
	}
	if m < n-1 {
		m = n - 1
	}
	maxEdges := int64(n) * int64(n-1) / 2
	if int64(m) > maxEdges {
		m = int(maxEdges)
	}
	r := rng(seed, 'C')
	b := graph.NewBuilder(n)
	b.Reserve(m)
	seen := newEdgeSet(m)
	add := func(u, v graph.VID) bool {
		if u == v || !seen.add(u, v) {
			return false
		}
		b.AddEdge(u, v)
		return true
	}
	// Random-attachment spanning tree over a random vertex order.
	order := r.Perm(n)
	for i := 1; i < n; i++ {
		add(order[i], order[r.Intn(i)])
	}
	for added := n - 1; added < m; {
		if add(r.Int31n(int32(n)), r.Int31n(int32(n))) {
			added++
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("randconn-n%d-m%d", n, m)
	return g
}

// edgeSet is an open-addressing set of undirected edges for the unique
// edge draws above. An edge {u, v} is stored as its canonical key
// u<<32 | v with u < v, which is never 0, so 0 marks an empty slot. The
// table is sized for m edges at most half full and never grows.
type edgeSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots)), for Fibonacci hashing
}

func newEdgeSet(m int) edgeSet {
	bits := uint(1)
	for 1<<bits < 2*m {
		bits++
	}
	return edgeSet{slots: make([]uint64, 1<<bits), shift: 64 - bits}
}

// add inserts {u, v} (u != v) and reports whether it was absent.
func (s edgeSet) add(u, v graph.VID) bool {
	if u > v {
		u, v = v, u
	}
	key := uint64(u)<<32 | uint64(v)
	mask := uint64(len(s.slots) - 1)
	for i := key * 0x9E3779B97F4A7C15 >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = key
			return true
		case key:
			return false
		}
	}
}
