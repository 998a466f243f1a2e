// Package bicc computes biconnected components, articulation points and
// bridges of an undirected graph — the application the paper's very
// first sentence motivates spanning trees with ("finding a spanning tree
// of a graph is an important building block for many graph algorithms,
// for example, biconnected components and ear decomposition").
//
// The implementation is the classic Hopcroft-Tarjan low-link algorithm
// run over a DFS spanning tree, written iteratively (explicit stacks) so
// it handles the library's degenerate chain inputs without overflowing
// the goroutine stack. The spanning-forest connection is direct: the DFS
// tree is a spanning tree of each component, low-links are computed
// against it, and every non-tree edge is a back edge.
//
// ComputeP parallelizes across connected components on the shared
// dynamic scheduler: components are vertex- and edge-disjoint, so the
// per-vertex and per-edge arrays can be shared while each component's
// DFS runs independently. Component ids are renumbered afterward to the
// exact sequence the sequential scan would produce, so Compute and
// ComputeP return identical results.
package bicc

import (
	"sort"

	"spantree/internal/graph"
	"spantree/internal/par"
)

// Options configures a parallel run.
type Options struct {
	// NumProcs is the number of virtual processors p (>= 1).
	NumProcs int
}

// Result holds the biconnected decomposition of a graph.
type Result struct {
	// CompOfEdge maps each undirected edge (in g.Edges() order) to its
	// biconnected component id in [0, NumComponents).
	CompOfEdge []int32
	// NumComponents is the number of biconnected components.
	NumComponents int
	// ArticulationPoints lists the cut vertices in increasing order.
	ArticulationPoints []graph.VID
	// Bridges lists the cut edges (canonical U < V), sorted.
	Bridges []graph.Edge
	// edgeIndex maps a canonical edge to its index in g.Edges() order.
	edgeIndex map[graph.Edge]int
}

// EdgeComponent returns the biconnected component id of edge {u,v}, or
// -1 if the edge does not exist.
func (r *Result) EdgeComponent(u, v graph.VID) int32 {
	i, ok := r.edgeIndex[graph.Edge{U: u, V: v}.Canon()]
	if !ok {
		return -1
	}
	return r.CompOfEdge[i]
}

// IsArticulation reports whether v is a cut vertex.
func (r *Result) IsArticulation(v graph.VID) bool {
	i := sort.Search(len(r.ArticulationPoints), func(i int) bool {
		return r.ArticulationPoints[i] >= v
	})
	return i < len(r.ArticulationPoints) && r.ArticulationPoints[i] == v
}

// Compute returns the biconnected decomposition of g.
func Compute(g *graph.Graph) *Result {
	return ComputeP(g, Options{NumProcs: 1})
}

// biccScratch is the shared per-vertex working state. Connected
// components partition the vertices, so concurrent component DFSs touch
// disjoint slots and the arrays can be shared without synchronization.
type biccScratch struct {
	disc       []int32 // discovery time, 0 = unvisited (local to the component)
	low        []int32 // low-link
	parent     []graph.VID
	childCount []int32 // DFS children of each vertex
	isArt      []bool
}

// ComputeP returns the biconnected decomposition of g, distributing
// whole connected components over p virtual processors. The result is
// identical to Compute's.
func ComputeP(g *graph.Graph, opt Options) *Result {
	if opt.NumProcs < 1 {
		opt.NumProcs = 1
	}
	n := g.NumVertices()
	edges := g.Edges()
	edgeIndex := make(map[graph.Edge]int, len(edges))
	for i, e := range edges {
		edgeIndex[e] = i
	}

	res := &Result{
		CompOfEdge: make([]int32, len(edges)),
		edgeIndex:  edgeIndex,
	}
	for i := range res.CompOfEdge {
		res.CompOfEdge[i] = -1
	}

	sc := &biccScratch{
		disc:       make([]int32, n),
		low:        make([]int32, n),
		parent:     make([]graph.VID, n),
		childCount: make([]int32, n),
		isArt:      make([]bool, n),
	}
	for i := range sc.parent {
		sc.parent[i] = graph.None
	}

	// One work item per connected component, started from its smallest
	// vertex — the same start the sequential ascending scan would pick,
	// so each component's local DFS numbering matches the sequential one.
	compOf, numComps := graph.Components(g)
	starts := make([]graph.VID, numComps)
	for v := n - 1; v >= 0; v-- {
		starts[compOf[v]] = graph.VID(v)
	}

	// Per-component outputs, merged deterministically after the run.
	blockCount := make([]int32, numComps)
	bridgesOf := make([][]graph.Edge, numComps)

	team := par.NewTeam(opt.NumProcs, nil)
	team.Run(func(c *par.Ctx) {
		c.ForDynamic(numComps, func(ci int) {
			blockCount[ci], bridgesOf[ci] = dfsComponent(g, starts[ci], sc, res.CompOfEdge, edgeIndex)
		})
	})

	// Renumber each component's local block ids into the global sequence
	// the sequential scan produces: components in smallest-vertex order
	// (exactly graph.Components' id order) own contiguous id blocks.
	base := make([]int32, numComps)
	total := int32(0)
	for ci := 0; ci < numComps; ci++ {
		base[ci] = total
		total += blockCount[ci]
	}
	res.NumComponents = int(total)
	for i := range res.CompOfEdge {
		if res.CompOfEdge[i] >= 0 {
			res.CompOfEdge[i] += base[compOf[edges[i].U]]
		}
	}
	for _, bs := range bridgesOf {
		res.Bridges = append(res.Bridges, bs...)
	}
	for v := 0; v < n; v++ {
		if sc.isArt[v] {
			res.ArticulationPoints = append(res.ArticulationPoints, graph.VID(v))
		}
	}
	sort.Slice(res.Bridges, func(i, j int) bool {
		if res.Bridges[i].U != res.Bridges[j].U {
			return res.Bridges[i].U < res.Bridges[j].U
		}
		return res.Bridges[i].V < res.Bridges[j].V
	})
	return res
}

// dfsComponent runs the iterative Hopcroft-Tarjan DFS over one connected
// component, writing component-local block ids into compOfEdge and cut
// vertices into sc.isArt. It returns the number of blocks found and the
// component's bridges.
func dfsComponent(g *graph.Graph, s graph.VID, sc *biccScratch,
	compOfEdge []int32, edgeIndex map[graph.Edge]int) (int32, []graph.Edge) {
	// Explicit DFS stack: frame = (vertex, index into its neighbor list).
	type frame struct {
		v  graph.VID
		ni int
	}
	var stack []frame
	// Edge stack for component extraction.
	var estack []graph.Edge
	var bridges []graph.Edge
	time := int32(0)
	comp := int32(0)

	popComponent := func(until graph.Edge) {
		for len(estack) > 0 {
			e := estack[len(estack)-1]
			estack = estack[:len(estack)-1]
			compOfEdge[edgeIndex[e]] = comp
			if e == until {
				break
			}
		}
		comp++
	}

	time++
	sc.disc[s] = time
	sc.low[s] = time
	stack = append(stack, frame{s, 0})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		v := f.v
		nb := g.Neighbors(v)
		if f.ni < len(nb) {
			w := nb[f.ni]
			f.ni++
			switch {
			case sc.disc[w] == 0:
				// Tree edge: descend.
				sc.parent[w] = v
				sc.childCount[v]++
				time++
				sc.disc[w] = time
				sc.low[w] = time
				estack = append(estack, graph.Edge{U: v, V: w}.Canon())
				stack = append(stack, frame{w, 0})
			case w != sc.parent[v] && sc.disc[w] < sc.disc[v]:
				// Back edge (visited ancestor): push once, update low.
				estack = append(estack, graph.Edge{U: v, V: w}.Canon())
				if sc.disc[w] < sc.low[v] {
					sc.low[v] = sc.disc[w]
				}
			}
			continue
		}
		// Done with v: propagate low-link into the parent and close
		// components at articulation boundaries.
		stack = stack[:len(stack)-1]
		p := sc.parent[v]
		if p == graph.None {
			continue
		}
		if sc.low[v] < sc.low[p] {
			sc.low[p] = sc.low[v]
		}
		if sc.low[v] >= sc.disc[p] {
			// p separates v's subtree: everything pushed since the
			// tree edge {p,v} forms one biconnected component.
			popComponent(graph.Edge{U: p, V: v}.Canon())
			if sc.parent[p] != graph.None || sc.childCount[p] > 1 {
				sc.isArt[p] = true
			}
		}
		if sc.low[v] > sc.disc[p] {
			bridges = append(bridges, graph.Edge{U: p, V: v}.Canon())
		}
	}
	return comp, bridges
}
