package core

import (
	"sync/atomic"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/verify"
)

// TestFusedClaimForests pins the fused parent-CAS claim representation:
// on disconnected and chain inputs (the shapes that exercise quiescence
// seeding and the deepest dependency chains), both drivers must still
// produce valid forests, neither the unclaimed sentinel nor a
// self-parent may appear in the returned array, and each component
// gets exactly one root.
func TestFusedClaimForests(t *testing.T) {
	inputs := []*graph.Graph{
		gen.Chain(300),
		graph.RandomRelabel(gen.Chain(300), 9),
		graph.Union(gen.Chain(40), gen.Torus2D(6, 6), gen.Star(25), gen.Chain(1)),
		graph.Union(gen.Random(80, 60, 3), gen.Cycle(12)), // random part is itself disconnected
	}
	for name, run := range drivers() {
		for _, g := range inputs {
			for _, chunk := range []int{0, 1, 2, 64} {
				parent, _, err := run(g, Options{NumProcs: 4, Seed: 21, ChunkSize: chunk})
				if err != nil {
					t.Fatalf("%s %v chunk=%d: %v", name, g, chunk, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%s %v chunk=%d: %v", name, g, chunk, err)
				}
				roots := 0
				for w, pv := range parent {
					if pv == graph.VID(w) || pv == unclaimed {
						t.Fatalf("%s %v chunk=%d: parent[%d] = %d leaked", name, g, chunk, w, pv)
					}
					if pv == graph.None {
						roots++
					}
				}
				if want := graph.NumComponents(g); roots != want {
					t.Fatalf("%s %v chunk=%d: %d roots, want %d", name, g, chunk, roots, want)
				}
			}
		}
	}
}

// TestLockstepChunkInvariantForest pins that the drain chunk, at any
// size, is purely a cost-model parameter for the deterministic driver: the round-robin schedule pops one
// vertex per turn regardless, so the forest and the work distribution
// must be bit-identical across every chunk configuration.
func TestLockstepChunkInvariantForest(t *testing.T) {
	checkLockstepChunkInvariant(t, gen.Random(400, 700, 13))
}

// TestLockstepChunkInvariantWithBottomUp extends the chunk-invariance
// pin to a dense low-diameter graph whose frontier balloons, so large
// steals interleave with the drain. (The name dates from when a
// bottom-up phase engaged on this input.)
func TestLockstepChunkInvariantWithBottomUp(t *testing.T) {
	checkLockstepChunkInvariant(t, gen.Random(1<<14, 12<<14, 7))
}

// checkLockstepChunkInvariant runs LockstepForest on g under a range of
// chunk sizes (0 being the default) and asserts each matches chunk 1
// exactly, in the forest and in the per-worker vertex counts.
func checkLockstepChunkInvariant(t *testing.T, g *graph.Graph) {
	t.Helper()
	base, baseStats, err := LockstepForest(g, Options{NumProcs: 4, Seed: 5, ChunkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(g, base); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{0, 2, 8, 16, 64, 512, 1024} {
		parent, stats, err := LockstepForest(g, Options{NumProcs: 4, Seed: 5, ChunkSize: chunk})
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		for w := range parent {
			if parent[w] != base[w] {
				t.Fatalf("chunk=%d: parent[%d] = %d, differs from chunk 1's %d",
					chunk, w, parent[w], base[w])
			}
		}
		for i := range stats.VerticesPerProc {
			if stats.VerticesPerProc[i] != baseStats.VerticesPerProc[i] {
				t.Fatalf("chunk=%d: worker %d claimed %d vertices, chunk 1 claimed %d",
					chunk, i, stats.VerticesPerProc[i], baseStats.VerticesPerProc[i])
			}
		}
	}
}

// BenchmarkClaim isolates the claim-step layouts the tentpole fused: the
// two-array port (load color[w], CAS color[w], write parent[w]) against
// the fused representation (load parent[w], CAS parent[w]) over a
// first-touch sweep of n vertices.
func BenchmarkClaim(b *testing.B) {
	const n = 1 << 16
	b.Run("color-plus-parent", func(b *testing.B) {
		color := make([]int32, n)
		parent := make([]graph.VID, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := i & (n - 1)
			if w == 0 {
				b.StopTimer()
				for j := range color {
					color[j] = 0
				}
				b.StartTimer()
			}
			if atomic.LoadInt32(&color[w]) != 0 {
				continue
			}
			if atomic.CompareAndSwapInt32(&color[w], 0, 1) {
				parent[w] = graph.VID(w)
			}
		}
	})
	b.Run("fused-parent-cas", func(b *testing.B) {
		parent := make([]graph.VID, n)
		for j := range parent {
			parent[j] = graph.None
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := i & (n - 1)
			if w == 0 {
				b.StopTimer()
				for j := range parent {
					parent[j] = graph.None
				}
				b.StartTimer()
			}
			if atomic.LoadInt32(&parent[w]) != graph.None {
				continue
			}
			atomic.CompareAndSwapInt32(&parent[w], graph.None, int32(w))
		}
	})
}
