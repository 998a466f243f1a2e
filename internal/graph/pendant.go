package graph

import "math"

// PendantTrees finds the pendant trees of g: the trees that hang off the
// 2-core of a component, which is what is left of the component after
// repeatedly deleting vertices of degree at most one. Every spanning
// forest of g contains every edge of a pendant tree, so a traversal may
// take them as given.
//
// parent[v] is v's neighbour toward the 2-core when v lies in a pendant
// tree, and None otherwise: for 2-core vertices, and for every vertex of
// a component whose 2-core is empty (an isolated vertex, a path, a star
// or any other tree component), which has no core to hang from. count is
// the number of pendant vertices. Following parent from a pendant vertex
// reaches a 2-core vertex of the same component without a cycle.
//
// The peel is O(n + m): every vertex is removed at most once, and its
// removal scans its adjacency once for its one remaining neighbour. A
// graph with no vertex of degree one has no pendant tree; it costs one
// pass over the offsets, allocates nothing and returns nil, 0.
//
// Self-loops and parallel edges, which only hand-built graphs carry, are
// tolerated: a vertex is removed only when it has at most one distinct
// remaining neighbour other than itself, so such a graph at worst yields
// fewer pendant vertices.
func PendantTrees(g *Graph) (parent []VID, count int) {
	n := g.NumVertices()
	leaves := 0
	for v := 0; v < n; v++ {
		if g.Offs[v+1]-g.Offs[v] == 1 {
			leaves++
		}
	}
	if leaves == 0 {
		return nil, 0
	}

	// deg[v] is v's remaining degree, never negative while v stays, and
	// removed (later tree) once v is peeled. It never undercounts v's
	// distinct remaining neighbours, and a vertex has fewer than MaxInt32
	// of those, so clamping is safe. order is the peel queue. A vertex
	// enters it once, when its degree reaches one, so the queue ends as
	// the peel order, in which every removed vertex precedes its parent.
	const removed, tree = -1, -2
	deg := make([]int32, n)
	order := make([]VID, 0, n)
	parent = make([]VID, n)
	for v := range deg {
		deg[v] = int32(min(g.Degree(VID(v)), math.MaxInt32))
		parent[v] = None
		if deg[v] == 1 {
			order = append(order, VID(v))
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		if deg[v] == 1 {
			for _, u := range g.Neighbors(v) {
				if u == v || deg[u] == removed {
					continue
				}
				parent[v] = u
				deg[u]--
				if deg[u] == 1 {
					order = append(order, u)
				}
				break
			}
		}
		// A vertex left with no neighbour is the last of a tree component;
		// it keeps parent None.
		deg[v] = removed
	}

	// Un-peel the tree components. In reverse peel order a vertex's
	// parent is settled before the vertex: a removed vertex is in a tree
	// component, marked tree, exactly when it was left with no neighbour
	// or its parent is marked tree; otherwise it hangs off a 2-core.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if u := parent[v]; u == None || deg[u] == tree {
			deg[v], parent[v] = tree, None
		} else {
			count++
		}
	}
	return parent, count
}
