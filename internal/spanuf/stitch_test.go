package spanuf

import (
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/smpmodel"
	"spantree/internal/verify"
)

// stitchAttach is the engine's splice idiom: reroot u's tree, then
// point u at v.
func stitchAttach(parent []graph.VID) func(u, v graph.VID) {
	return func(u, v graph.VID) {
		rerootAt(parent, u)
		parent[u] = v
	}
}

// rerootAt re-hangs a tree so that r becomes its root, reversing the
// parent pointers along the r-to-root path (the test-local copy of the
// core engine's helper).
func rerootAt(parent []graph.VID, r graph.VID) {
	prev := graph.None
	cur := r
	for cur != graph.None && parent[cur] != cur {
		next := parent[cur]
		parent[cur] = prev
		prev = cur
		cur = next
	}
	if cur != graph.None {
		parent[cur] = prev
	}
}

func TestStitchJoinsTwoTrees(t *testing.T) {
	// Two chains, one boundary edge: 0->1->2 (root 2) and 3->4 (root 4).
	parent := []graph.VID{1, 2, graph.None, 4, graph.None}
	boundary := []graph.Edge{{U: 0, V: 3}}
	s := NewStitchScratch(len(parent))
	hooks := s.Stitch(parent, boundary, nil, stitchAttach(parent))
	if hooks != 1 {
		t.Fatalf("hooks = %d, want 1", hooks)
	}
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 0, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, pv := range parent {
		if pv == graph.None {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots after stitch, want 1", roots)
	}
}

func TestStitchSkipsSameComponent(t *testing.T) {
	// One tree, a boundary edge inside it: no hook, no mutation.
	parent := []graph.VID{1, 2, graph.None}
	want := append([]graph.VID(nil), parent...)
	s := NewStitchScratch(len(parent))
	if hooks := s.Stitch(parent, []graph.Edge{{U: 0, V: 2}}, nil, stitchAttach(parent)); hooks != 0 {
		t.Fatalf("hooks = %d, want 0", hooks)
	}
	for v := range parent {
		if parent[v] != want[v] {
			t.Fatalf("parent[%d] mutated: %d -> %d", v, want[v], parent[v])
		}
	}
}

// TestStitchLabelWalkAfterReroot is the regression test for the
// unlabeled-sentinel bug: with "unlabeled" encoded as uf[v] == v, a
// label walk that runs after an attach has rerooted a tree can pass
// straight through a live union-find representative (its uf entry still
// satisfies the identity test) and memoize it onto the other
// component's label — closing a uf cycle that find() then chases
// forever. The shape below triggers exactly that: the first edge's
// endpoints are the two roots (so no interior vertex is memoized), the
// attach points the star's hub into the second tree, and the second
// edge's label walk crosses the hub into memoized territory. Before the
// ufUnlabeled sentinel this test hung; now it must terminate with the
// second edge recognized as intra-component.
func TestStitchLabelWalkAfterReroot(t *testing.T) {
	// Shard [0,4): star 0,1,3 -> 2 (root 2). Shard [4,6): 4 -> 5 (root 5).
	parent := []graph.VID{2, 2, graph.None, 2, 5, graph.None}
	boundary := []graph.Edge{{U: 2, V: 4}, {U: 3, V: 5}}
	s := NewStitchScratch(len(parent))
	hooks := s.Stitch(parent, boundary, nil, stitchAttach(parent))
	if hooks != 1 {
		t.Fatalf("hooks = %d, want 1", hooks)
	}
	g, err := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 2}, {U: 1, V: 2}, {U: 3, V: 2}, {U: 4, V: 5},
		{U: 2, V: 4}, {U: 3, V: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatal(err)
	}
}

// TestStitchRootedMatchesGeneral pins the fast path to the general one:
// when every shard forest is a single tree, StitchRooted must elect the
// same boundary edges and produce the same stitched forest as Stitch.
func TestStitchRootedMatchesGeneral(t *testing.T) {
	g := gen.Torus2D(16, 16)
	for _, shards := range []int{2, 3, 4, 7} {
		part, err := graph.PartitionCSR(g, shards, graph.CutVertexBalanced)
		if err != nil {
			t.Fatal(err)
		}
		// Grow one BFS tree per shard over its compact view.
		build := func() []graph.VID {
			parent := make([]graph.VID, g.NumVertices())
			for i := range parent {
				parent[i] = graph.None
			}
			for _, sh := range part.Shards {
				var queue []graph.VID
				root := sh.Lo
				parent[root] = root // marks the root visited until the BFS ends
				queue = append(queue, root)
				for len(queue) > 0 {
					v := queue[0]
					queue = queue[1:]
					for _, w := range sh.CSR.Neighbors32(v - sh.Lo) {
						if parent[w] == graph.None {
							parent[w] = v
							queue = append(queue, graph.VID(w))
						}
					}
				}
				parent[root] = graph.None
				for v := sh.Lo; v < sh.Hi; v++ {
					if parent[v] == graph.None && v != root {
						t.Fatalf("shards=%d: shard [%d,%d) not a single tree", shards, sh.Lo, sh.Hi)
					}
				}
			}
			return parent
		}

		general := build()
		sg := NewStitchScratch(g.NumVertices())
		hooksG := sg.Stitch(general, part.Boundary, nil, stitchAttach(general))

		rooted := build()
		sr := NewStitchScratch(g.NumVertices())
		shardOf := func(v graph.VID) int32 {
			for i := range part.Shards {
				if v < part.Shards[i].Hi {
					return int32(i)
				}
			}
			panic("vertex out of range")
		}
		hooksR := sr.StitchRooted(len(part.Shards), shardOf, part.Boundary, nil, stitchAttach(rooted))

		if hooksG != hooksR {
			t.Fatalf("shards=%d: general %d hooks, rooted %d", shards, hooksG, hooksR)
		}
		if hooksR != len(part.Shards)-1 {
			t.Fatalf("shards=%d: %d hooks, want %d", shards, hooksR, len(part.Shards)-1)
		}
		for v := range general {
			if rooted[v] != general[v] {
				t.Fatalf("shards=%d: parent[%d] = %d rooted, %d general", shards, v, rooted[v], general[v])
			}
		}
		if err := verify.Forest(g, rooted); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}

// TestStitchChargesModel checks the stitch's cost accounting shape: the
// general path pays the O(n) label rearm plus pointer chases for the
// walks, while the rooted fast path pays neither — its footprint is the
// boundary stream at contiguous rates plus one CAS per hook.
func TestStitchChargesModel(t *testing.T) {
	g := gen.Torus2D(16, 16)
	part, err := graph.PartitionCSR(g, 2, graph.CutVertexBalanced)
	if err != nil {
		t.Fatal(err)
	}
	parent := make([]graph.VID, g.NumVertices())
	mkForest := func() {
		for i := range parent {
			parent[i] = graph.None
		}
		for _, sh := range part.Shards {
			for v := sh.Lo + 1; v < sh.Hi; v++ {
				parent[v] = v - 1 // a chain per shard, root at sh.Lo
			}
		}
	}
	shardOf := func(v graph.VID) int32 {
		if v < part.Shards[1].Lo {
			return 0
		}
		return 1
	}

	mkForest()
	mg := smpmodel.New(1)
	s := NewStitchScratch(g.NumVertices())
	s.Stitch(parent, part.Boundary, mg.Probe(0), stitchAttach(parent))
	general := mg.MaxPerProc()

	mkForest()
	mr := smpmodel.New(1)
	s2 := NewStitchScratch(g.NumVertices())
	s2.StitchRooted(2, shardOf, part.Boundary, mr.Probe(0), stitchAttach(parent))
	rooted := mr.MaxPerProc()

	if general.PointerChases == 0 {
		t.Fatal("general path charged no pointer chases for its label walks")
	}
	if general.Contig < int64(g.NumVertices()) {
		t.Fatalf("general path charged Contig %d, want >= n = %d for the rearm",
			general.Contig, g.NumVertices())
	}
	if rooted.PointerChases != 0 {
		t.Fatalf("rooted path charged %d pointer chases, want 0", rooted.PointerChases)
	}
	if rooted.Contig >= int64(g.NumVertices()) {
		t.Fatalf("rooted path charged Contig %d, want < n (no O(n) rearm)", rooted.Contig)
	}
	if general.CASOps != 1 || rooted.CASOps != 1 {
		t.Fatalf("hook CAS charges: general %d, rooted %d, want 1 each", general.CASOps, rooted.CASOps)
	}
}
