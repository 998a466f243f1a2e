package graph

import (
	"slices"
	"testing"
)

// edgeGraph builds an n-vertex graph from endpoint pairs.
func edgeGraph(n int, pairs ...[2]VID) *Graph {
	b := NewBuilder(n)
	for _, e := range pairs {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// wantParents is an n-entry parent array with None everywhere except the
// given child → parent pairs.
func wantParents(n int, hang map[VID]VID) []VID {
	want := make([]VID, n)
	for v := range want {
		want[v] = None
	}
	for v, u := range hang {
		want[v] = u
	}
	return want
}

func TestPendantTreesExact(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		hang map[VID]VID
	}{
		{
			// A 4-cycle 0-1-2-3 with the path 0-4-5-6 and the star centred
			// on 7 hanging off 2.
			name: "cycle with a pendant path and a pendant star",
			g: edgeGraph(11, [2]VID{0, 1}, [2]VID{1, 2}, [2]VID{2, 3}, [2]VID{3, 0},
				[2]VID{0, 4}, [2]VID{4, 5}, [2]VID{5, 6},
				[2]VID{2, 7}, [2]VID{7, 8}, [2]VID{7, 9}, [2]VID{7, 10}),
			hang: map[VID]VID{4: 0, 5: 4, 6: 5, 7: 2, 8: 7, 9: 7, 10: 7},
		},
		{
			// Two pendant trees, the path 0-3-4 and the leaf 5, on one
			// attachment vertex of a triangle.
			name: "two pendant trees on one attachment vertex",
			g: edgeGraph(6, [2]VID{0, 1}, [2]VID{1, 2}, [2]VID{2, 0},
				[2]VID{0, 3}, [2]VID{3, 4}, [2]VID{0, 5}),
			hang: map[VID]VID{3: 0, 4: 3, 5: 0},
		},
		{
			// A triangle with the leaf 3, beside a star component on 4-7,
			// which has no 2-core and so is not peeled.
			name: "tree component beside a cycle",
			g: edgeGraph(8, [2]VID{0, 1}, [2]VID{1, 2}, [2]VID{2, 0}, [2]VID{0, 3},
				[2]VID{5, 4}, [2]VID{5, 6}, [2]VID{5, 7}),
			hang: map[VID]VID{3: 0},
		},
		{
			name: "isolated vertex",
			g:    edgeGraph(5, [2]VID{0, 1}, [2]VID{1, 2}, [2]VID{2, 0}, [2]VID{1, 3}),
			hang: map[VID]VID{3: 1},
		},
		{
			// Two triangles joined by the path 2-6-7-3: the path lies on no
			// cycle, but it is in the 2-core, so nothing hangs.
			name: "bridge path between two cycles",
			g: edgeGraph(8, [2]VID{0, 1}, [2]VID{1, 2}, [2]VID{2, 0},
				[2]VID{3, 4}, [2]VID{4, 5}, [2]VID{5, 3},
				[2]VID{2, 6}, [2]VID{6, 7}, [2]VID{7, 3}),
			hang: map[VID]VID{},
		},
		{
			name: "tree components only",
			g:    Union(edgeGraph(4, [2]VID{0, 1}, [2]VID{1, 2}, [2]VID{1, 3}), edgeGraph(3, [2]VID{0, 1}), edgeGraph(1)),
			hang: map[VID]VID{},
		},
	}
	for _, c := range cases {
		parent, count := PendantTrees(c.g)
		if count != len(c.hang) {
			t.Errorf("%s: count = %d, want %d", c.name, count, len(c.hang))
		}
		want := wantParents(c.g.NumVertices(), c.hang)
		if count == 0 && parent == nil {
			continue
		}
		if !slices.Equal(parent, want) {
			t.Errorf("%s: parent = %v, want %v", c.name, parent, want)
		}
	}
}

// TestPendantTreesNone: a graph without a degree-one vertex has no
// pendant tree and gets no parent array at all.
func TestPendantTreesNone(t *testing.T) {
	var torus [][2]VID
	const side = 8
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := VID(r*side + c)
			torus = append(torus, [2]VID{v, VID(r*side + (c+1)%side)}, [2]VID{v, VID(((r+1)%side)*side + c)})
		}
	}
	var complete [][2]VID
	for u := VID(0); u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			complete = append(complete, [2]VID{u, v})
		}
	}
	for name, g := range map[string]*Graph{
		"torus":    edgeGraph(side*side, torus...),
		"complete": edgeGraph(12, complete...),
		"edgeless": edgeGraph(6),
		"empty":    edgeGraph(0),
	} {
		if parent, count := PendantTrees(g); parent != nil || count != 0 {
			t.Errorf("%s: PendantTrees = %v, %d; want nil, 0", name, parent, count)
		}
	}
}

// TestPendantTreesHandBuilt: self-loops and parallel edges, which only
// hand-built graphs carry, never make a vertex its own parent or a
// parent that is not a neighbour; such vertices at worst stay unpeeled.
func TestPendantTreesHandBuilt(t *testing.T) {
	// A triangle 0-1-2 with the leaf 8 on 2. 3 hangs off 0 by a doubled
	// edge and 4 off 1 beside a self-loop: both count two neighbours, so
	// they stay. 5 has only a self-loop. 7 is a leaf of 6, which has a
	// self-loop besides: the pair is a tree component.
	g := &Graph{
		Offs: []int64{0, 3, 6, 9, 11, 13, 14, 16, 17, 18},
		Adj:  []VID{1, 2, 3, 0, 2, 4, 0, 1, 8, 0, 0, 1, 4, 5, 7, 6, 6, 2},
	}
	parent, count := PendantTrees(g)
	if err := checkPendant(g, parent, count); err != "" {
		t.Fatal(err)
	}
	if want := wantParents(9, map[VID]VID{8: 2}); count != 1 || !slices.Equal(parent, want) {
		t.Fatalf("PendantTrees = %v, %d; want %v, 1", parent, count, want)
	}
}

// FuzzPendantTrees holds the peel to a naive oracle on inputs decoded by
// fuzzEdges: the 2-core computed by repeated deletion, every pendant
// parent a neighbour, every parent chain reaching the 2-core without a
// cycle, and tree components untouched.
func FuzzPendantTrees(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{9})
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})                         // star: a tree component
	f.Add([]byte{7, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 3, 6})             // triangle with a pendant tree
	f.Add([]byte{9, 0, 1, 1, 2, 2, 0, 0, 3, 4, 5, 5, 6, 6, 4, 7, 8})       // two leafy triangles and an edge
	f.Add([]byte{8, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 4, 5, 5, 6, 6, 7, 7, 4}) // no degree-one vertex
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges, ok := fuzzEdges(data)
		if !ok {
			return
		}
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
		g := b.Build()
		parent, count := PendantTrees(g)
		if err := checkPendant(g, parent, count); err != "" {
			t.Fatalf("n=%d edges=%v: %s", n, edges, err)
		}
		// Against the oracle: exactly the vertices outside the 2-core of a
		// component with a non-empty 2-core hang.
		core := naiveTwoCore(g)
		label, comps := Components(g)
		hasCore := make([]bool, comps)
		for v, in := range core {
			if in {
				hasCore[label[v]] = true
			}
		}
		want := 0
		for v := 0; v < n; v++ {
			pendant := !core[v] && hasCore[label[v]]
			if pendant {
				want++
			}
			if hangs := parent != nil && parent[v] != None; hangs != pendant {
				t.Fatalf("n=%d edges=%v: vertex %d hangs=%v, oracle says pendant=%v", n, edges, v, hangs, pendant)
			}
		}
		if count != want {
			t.Fatalf("n=%d edges=%v: count = %d, oracle %d", n, edges, count, want)
		}
	})
}

// checkPendant checks the structural promises of PendantTrees' output
// and returns a description of the first broken one ("" if none): the
// count matches the hanging vertices, every parent is a neighbour other
// than the vertex itself, and every parent chain ends, within n steps,
// at a vertex that does not hang.
func checkPendant(g *Graph, parent []VID, count int) string {
	n := g.NumVertices()
	if parent == nil {
		if count != 0 {
			return "nil parent with a non-zero count"
		}
		return ""
	}
	if len(parent) != n {
		return "parent has the wrong length"
	}
	hanging := 0
	for v := 0; v < n; v++ {
		u := parent[v]
		if u == None {
			continue
		}
		hanging++
		if u == VID(v) || !slices.Contains(g.Neighbors(VID(v)), u) {
			return "a parent is not a neighbour"
		}
		cur, steps := VID(v), 0
		for parent[cur] != None {
			if cur, steps = parent[cur], steps+1; steps > n {
				return "a parent chain cycles"
			}
		}
	}
	if hanging != count {
		return "count differs from the hanging vertices"
	}
	return ""
}

// naiveTwoCore computes the 2-core by repeated deletion: while some
// remaining vertex has fewer than two remaining neighbours, delete it.
func naiveTwoCore(g *Graph) []bool {
	n := g.NumVertices()
	in := make([]bool, n)
	for v := range in {
		in[v] = true
	}
	for changed := true; changed; {
		changed = false
		for v := 0; v < n; v++ {
			if !in[v] {
				continue
			}
			deg := 0
			for _, u := range g.Neighbors(VID(v)) {
				if in[u] {
					deg++
				}
			}
			if deg < 2 {
				in[v], changed = false, true
			}
		}
	}
	return in
}
