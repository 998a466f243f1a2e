package core

import (
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/verify"
)

// leafyShapes are inputs with pendant trees, which a Workspace
// pre-claims: sparse random graphs (the Fig. 3 ratio and a near-tree
// ratio), a clique with a long tail, a triangle under a big binary tree
// (nearly every vertex pendant, so the first root is redrawn often), and
// a union of leafy cycles with tree components and an isolated vertex.
func leafyShapes() []*graph.Graph {
	// lollipop: the clique 0-5 with the path 5-6-...-99 hanging off 5.
	lollipop := graph.NewBuilder(100)
	for u := graph.VID(0); u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			lollipop.AddEdge(u, v)
		}
	}
	for v := graph.VID(6); v < 100; v++ {
		lollipop.AddEdge(v-1, v)
	}
	// kite: a triangle 0-1-2 with a 255-vertex binary tree (3-257) hung
	// off 0 by its root.
	kite := graph.NewBuilder(258)
	kite.AddEdge(0, 1)
	kite.AddEdge(1, 2)
	kite.AddEdge(2, 0)
	kite.AddEdge(0, 3)
	for v := graph.VID(1); v < 255; v++ {
		kite.AddEdge(3+(v-1)/2, 3+v)
	}
	// spiky: a 20-cycle with a pendant path on every fourth vertex and a
	// pendant star on every fifth.
	spiky := graph.NewBuilder(20)
	for v := graph.VID(0); v < 20; v++ {
		spiky.AddEdge(v, (v+1)%20)
		if v%4 == 0 {
			a := spiky.Grow(3)
			spiky.AddEdge(v, a)
			spiky.AddEdge(a, a+1)
			spiky.AddEdge(a+1, a+2)
		}
		if v%5 == 0 {
			c := spiky.Grow(4)
			spiky.AddEdge(v, c)
			spiky.AddEdge(c, c+1)
			spiky.AddEdge(c, c+2)
			spiky.AddEdge(c, c+3)
		}
	}
	return []*graph.Graph{
		gen.Random(300, 450, 1),
		gen.RandomConnected(400, 480, 3),
		lollipop.Build(),
		kite.Build(),
		graph.Union(spiky.Build(), gen.Chain(12), gen.Star(9), gen.Chain(1), gen.Random(60, 90, 5)),
	}
}

// TestLeafyGraphsAllSeeds runs pooled workspaces over every leafy shape
// with and without the stub, at p = 1, 2 and 4, for 100 seeds each.
// Every forest must verify, count one root per component, keep each
// pendant vertex under the parent the peel gave it, and traverse only
// the vertices outside the pendant trees.
func TestLeafyGraphsAllSeeds(t *testing.T) {
	for _, g := range leafyShapes() {
		hang, count := graph.PendantTrees(g)
		if count == 0 {
			t.Fatalf("%v: no pendant vertex", g)
		}
		comps := graph.NumComponents(g)
		for _, noStub := range []bool{false, true} {
			for _, p := range []int{1, 2, 4} {
				w, err := NewWorkspace(g, Options{NumProcs: p, NoStub: noStub})
				if err != nil {
					t.Fatal(err)
				}
				for seed := uint64(0); seed < 100; seed++ {
					parent, st, err := w.Run(seed)
					if err != nil {
						t.Fatalf("%v noStub=%v p=%d seed=%d: %v", g, noStub, p, seed, err)
					}
					if err := verify.Forest(g, parent); err != nil {
						t.Fatalf("%v noStub=%v p=%d seed=%d: %v", g, noStub, p, seed, err)
					}
					if st.Roots != comps || st.Pendant != count {
						t.Fatalf("%v noStub=%v p=%d seed=%d: roots/pendant %d/%d, want %d/%d",
							g, noStub, p, seed, st.Roots, st.Pendant, comps, count)
					}
					var traversed int64
					for _, c := range st.VerticesPerProc {
						traversed += c
					}
					if traversed > int64(g.NumVertices()-count) {
						t.Fatalf("%v noStub=%v p=%d seed=%d: traversed %d of %d non-pendant vertices",
							g, noStub, p, seed, traversed, g.NumVertices()-count)
					}
					for v, u := range hang {
						if u != graph.None && parent[v] != u {
							t.Fatalf("%v noStub=%v p=%d seed=%d: pendant %d under %d, peeled under %d",
								g, noStub, p, seed, v, parent[v], u)
						}
					}
				}
				w.Close()
			}
		}
	}
}

// TestPendantTrimOnlyInWorkspaces: one-shot runs stay untrimmed unless a
// test asks for the pooled behaviour, and a graph without pendant
// vertices gets no parent image.
func TestPendantTrimOnlyInWorkspaces(t *testing.T) {
	g := gen.Random(300, 450, 1)
	_, count := graph.PendantTrees(g)
	if _, st, err := SpanningForest(g, Options{NumProcs: 2, Seed: 1}); err != nil || st.Pendant != 0 {
		t.Fatalf("one-shot: Pendant = %d, err = %v; want 0, nil", st.Pendant, err)
	}
	if _, st, err := SpanningForest(g, WithPendantTrim(Options{NumProcs: 2, Seed: 1})); err != nil || st.Pendant != count {
		t.Fatalf("trimmed one-shot: Pendant = %d, err = %v; want %d, nil", st.Pendant, err, count)
	}
	w, err := NewWorkspace(gen.Torus2D(8, 8), Options{NumProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.t.image != nil || w.t.pendant != 0 {
		t.Fatalf("torus workspace: image of %d entries, %d pendant; want none", len(w.t.image), w.t.pendant)
	}
}
