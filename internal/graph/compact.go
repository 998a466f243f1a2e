package graph

// Compact uint32 CSR layout. The wide Graph spends 8 bytes per offset
// (int64) where graphs at the paper's scale (n = 1M) need 4, and keeps
// offsets and adjacency in two separately allocated slices. CSR32 packs
// both into one uint32 arena: offsets in arena[:n+1], adjacency in
// arena[n+1:]. Halving the offset width halves the random-access
// footprint of the per-vertex "load Offs[v], Offs[v+1]" pair that the
// Helman–JáJá model charges as non-contiguous, and the single arena
// keeps the two regions adjacent so a traversal's working set spans one
// allocation instead of two.
//
// CSR32 is the read-only view the work-stealing traversal reads;
// everything else (the SV fallback, verification, the other algorithms)
// keeps using the wide Graph it was built from.

import "fmt"

// CSR32 is a compact read-only CSR graph: uint32 offsets and adjacency
// in one arena-backed allocation, valid for graphs with fewer than 2^32
// vertices and directed-edge slots.
type CSR32 struct {
	// Offs and Adj alias one backing arena: Offs = arena[:n+1],
	// Adj = arena[n+1:]. Neighbors of v are Adj[Offs[v]:Offs[v+1]].
	Offs []uint32
	Adj  []uint32
	// Name carries over the source graph's provenance.
	Name string
}

// CompactOf builds the compact layout from a wide graph. It errors when
// the vertex count or adjacency length does not fit uint32 — such graphs
// can only be read through the wide Graph.
func CompactOf(g *Graph) (*CSR32, error) {
	n := g.NumVertices()
	if n < 0 {
		return nil, fmt.Errorf("graph: compacting malformed graph (no offsets)")
	}
	const limit = int64(1) << 32
	if int64(n)+1 >= limit || int64(len(g.Adj)) >= limit {
		return nil, fmt.Errorf("graph: %d vertices / %d adjacency slots exceed the uint32 compact layout", n, len(g.Adj))
	}
	arena := make([]uint32, n+1+len(g.Adj))
	offs := arena[: n+1 : n+1]
	adj := arena[n+1:]
	for i, o := range g.Offs {
		if o < 0 || o >= limit {
			return nil, fmt.Errorf("graph: offset %d at vertex %d does not fit the uint32 compact layout", o, i)
		}
		offs[i] = uint32(o)
	}
	for i, w := range g.Adj {
		if w < 0 {
			return nil, fmt.Errorf("graph: negative neighbor %d at slot %d", w, i)
		}
		adj[i] = uint32(w)
	}
	return &CSR32{Offs: offs, Adj: adj, Name: g.Name}, nil
}

// NumVertices returns the number of vertices.
func (c *CSR32) NumVertices() int { return len(c.Offs) - 1 }

// NumEdges returns the number of undirected edges.
func (c *CSR32) NumEdges() int { return len(c.Adj) / 2 }

// Degree returns the degree of v.
func (c *CSR32) Degree(v VID) int {
	return int(c.Offs[v+1] - c.Offs[v])
}

// Neighbors32 returns the neighbor slice of v in the compact encoding.
// The caller must not modify the returned slice.
func (c *CSR32) Neighbors32(v VID) []uint32 {
	return c.Adj[c.Offs[v]:c.Offs[v+1]]
}

// ToGraph widens the compact layout back into a Graph. The result is
// structurally identical to the graph CompactOf was built from
// (round-trip property: g.Equal(CompactOf(g).ToGraph())).
func (c *CSR32) ToGraph() *Graph {
	g := &Graph{
		Offs: make([]int64, len(c.Offs)),
		Adj:  make([]VID, len(c.Adj)),
		Name: c.Name,
	}
	for i, o := range c.Offs {
		g.Offs[i] = int64(o)
	}
	for i, w := range c.Adj {
		g.Adj[i] = VID(w)
	}
	return g
}
