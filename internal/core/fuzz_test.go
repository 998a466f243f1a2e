package core

import (
	"testing"

	"spantree/internal/graph"
	"spantree/internal/verify"
)

// FuzzFind attacks the traversal end to end: the fuzzer's bytes decode
// into a graph of up to 63 vertices (edge endpoints read in pairs, each
// reduced mod n) and a team of 1 to 4 workers, and every driver — the
// concurrent SpanningForest, the deterministic LockstepForest and a
// pooled Workspace over two runs — must return a verified forest whose
// counted root number is the component count and whose trees are
// exactly the components. `go test` runs the seed corpus;
// `go test -run '^$' -fuzz FuzzFind ./internal/core` explores further.
func FuzzFind(f *testing.F) {
	f.Add(uint8(5), uint8(1), uint64(1), []byte{})                                                      // edgeless
	f.Add(uint8(4), uint8(2), uint64(2), []byte{0, 1, 1, 2})                                            // isolated last vertex
	f.Add(uint8(6), uint8(3), uint64(3), []byte{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3})                    // two triangles
	f.Add(uint8(9), uint8(4), uint64(4), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8})        // star
	f.Add(uint8(10), uint8(2), uint64(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9}) // path
	f.Fuzz(func(t *testing.T, nb, pb uint8, seed uint64, edges []byte) {
		n, p := int(nb%64), 1+int(pb%4)
		b := graph.NewBuilder(n)
		for i := 0; n > 0 && i+1 < len(edges); i += 2 {
			b.AddEdge(graph.VID(int(edges[i])%n), graph.VID(int(edges[i+1])%n))
		}
		g := b.Build()
		label, comps := graph.Components(g)
		check := func(name string, parent []graph.VID, st *Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st.Panic != nil {
				t.Fatalf("%s: worker panicked: %v", name, st.Panic)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if st.Roots != comps {
				t.Fatalf("%s: Stats.Roots = %d, want %d components", name, st.Roots, comps)
			}
			// Same tree exactly when same component: the map from tree
			// root to component label is a bijection.
			rootLabel := make(map[graph.VID]graph.VID, comps)
			labelRoot := make(map[graph.VID]graph.VID, comps)
			for v := range parent {
				r := graph.VID(v)
				for parent[r] != graph.None {
					r = parent[r]
				}
				if l, ok := rootLabel[r]; ok && l != label[v] {
					t.Fatalf("%s: tree of root %d spans components %d and %d", name, r, l, label[v])
				}
				if q, ok := labelRoot[label[v]]; ok && q != r {
					t.Fatalf("%s: component %d split across roots %d and %d", name, label[v], q, r)
				}
				rootLabel[r], labelRoot[label[v]] = label[v], r
			}
		}

		o := Options{NumProcs: p, Seed: seed}
		parent, st, err := SpanningForest(g, o)
		check("concurrent", parent, &st, err)
		parent, st, err = LockstepForest(g, o)
		check("lockstep", parent, &st, err)
		w, err := NewWorkspace(g, o)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for _, s := range []uint64{seed, seed + 1} {
			parent, wst, err := w.Run(s)
			check("workspace", parent, wst, err)
		}
	})
}
