package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates undirected edges and produces a canonical CSR
// Graph: self-loops dropped, parallel edges deduplicated, neighbor lists
// sorted. It is the single entry point all generators use, so every
// Graph in the library satisfies Validate.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n vertices. It panics if
// n < 0 or n exceeds the int32 vertex space.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBuilder with negative n = %d", n))
	}
	if int64(n) > int64(1)<<31-1 {
		panic(fmt.Sprintf("graph: n = %d exceeds int32 vertex space", n))
	}
	return &Builder{n: n}
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// AddEdge records the undirected edge {u,v}. Self-loops are silently
// dropped; duplicates are removed at Build time. It panics on
// out-of-range endpoints: generators are internal code, and a bad
// endpoint is a programming error, not an input error.
func (b *Builder) AddEdge(u, v VID) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: AddEdge(%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, Edge{u, v}.Canon())
}

// Reserve makes room for m more edges, so a generator that knows its
// edge count fills the builder without regrowing it.
func (b *Builder) Reserve(m int) {
	b.edges = slices.Grow(b.edges, m)
}

// Grow appends extra vertices, returning the id of the first new vertex.
func (b *Builder) Grow(extra int) VID {
	if extra < 0 {
		panic("graph: Grow with negative extra")
	}
	first := VID(b.n)
	b.n += extra
	return first
}

// Build produces the canonical CSR graph in O(n + m) time with a
// constant number of allocations, and resets nothing: the builder may
// continue to accumulate edges for a later Build.
//
// The canonical (U < V) edges are counting-sorted into one bucket per U,
// and each bucket, which holds only U's larger neighbours, is sorted and
// deduplicated in place. Emitting the buckets in increasing U, appending
// V to U's list and U to V's, then fills every list in sorted order: a
// vertex's smaller neighbours arrive first, in the increasing order of
// the buckets that hold them, and its own bucket's larger ones after.
func (b *Builder) Build() *Graph {
	n := b.n
	// Counting sort by U. After the placement loop, bucket u is
	// vs[end[u-1]:end[u]] (end[-1] read as 0).
	end := make([]int, n+1)
	for _, e := range b.edges {
		end[e.U+1]++
	}
	for u := 0; u < n; u++ {
		end[u+1] += end[u]
	}
	vs := make([]VID, len(b.edges))
	for _, e := range b.edges {
		vs[end[e.U]] = e.V
		end[e.U]++
	}

	// Sort and deduplicate each bucket, compacting the unique edges to the
	// front of vs, and count degrees into offs[v+1].
	offs := make([]int64, n+1)
	m, lo := 0, 0
	for u := 0; u < n; u++ {
		bucket := vs[lo:end[u]]
		lo = end[u]
		if len(bucket) > 1 {
			slices.Sort(bucket)
		}
		first, prev := m, None
		for _, v := range bucket {
			if v != prev {
				vs[m] = v
				m++
				offs[v+1]++
				prev = v
			}
		}
		offs[u+1] += int64(m - first)
		end[u] = m
	}

	// Turn the degrees into start offsets, one slot to the right:
	// offs[v+1] is v's append cursor, and ends at v's end, which is where
	// v+1's list starts.
	var run int64
	for v := 1; v <= n; v++ {
		d := offs[v]
		offs[v] = run
		run += d
	}
	adj := make([]VID, 2*m)
	lo = 0
	for u := 0; u < n; u++ {
		bucket := vs[lo:end[u]]
		lo = end[u]
		// Every smaller neighbour of u came from an earlier bucket, so u's
		// own larger neighbours go after them in one copy.
		c := offs[u+1]
		copy(adj[c:], bucket)
		offs[u+1] = c + int64(len(bucket))
		for _, v := range bucket {
			adj[offs[v+1]] = VID(u)
			offs[v+1]++
		}
	}
	return &Graph{Offs: offs, Adj: adj}
}

// FromEdges builds a canonical graph with n vertices from an arbitrary
// edge list (self-loops dropped, duplicates removed). It returns an
// error for out-of-range endpoints, making it suitable for external
// input, unlike Builder.AddEdge which panics.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	b := NewBuilder(n)
	b.Reserve(len(edges))
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.U, e.V, n)
		}
		b.AddEdge(e.U, e.V)
	}
	return b.Build(), nil
}

// Union returns the disjoint union of the given graphs: vertex ids of
// graph i are shifted by the total vertex count of graphs 0..i-1. Useful
// for constructing disconnected test inputs.
func Union(gs ...*Graph) *Graph {
	total, edges := 0, 0
	for _, g := range gs {
		total += g.NumVertices()
		edges += g.NumEdges()
	}
	b := NewBuilder(total)
	b.Reserve(edges)
	base := VID(0)
	for _, g := range gs {
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(VID(v)) {
				if VID(v) < w {
					b.AddEdge(base+VID(v), base+w)
				}
			}
		}
		base += VID(g.NumVertices())
	}
	u := b.Build()
	u.Name = "union"
	return u
}
