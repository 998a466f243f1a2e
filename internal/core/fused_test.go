package core

import (
	"sync/atomic"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/sched"
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
	variants := []struct {
		policy sched.ChunkPolicy
		chunk  int
	}{
		{sched.ChunkAdaptive, 0}, {sched.ChunkAdaptive, 2}, {sched.ChunkAdaptive, 64},
		{sched.ChunkFixed, 1}, {sched.ChunkFixed, 2}, {sched.ChunkFixed, 64},
	}
	for name, run := range drivers() {
		for _, g := range inputs {
			for _, v := range variants {
				tag := v.policy.String()
				parent, _, err := run(g, Options{NumProcs: 4, Seed: 21, ChunkPolicy: v.policy, ChunkSize: v.chunk})
				if err != nil {
					t.Fatalf("%s %v %s chunk=%d: %v", name, g, tag, v.chunk, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%s %v %s chunk=%d: %v", name, g, tag, v.chunk, err)
				}
				roots := 0
				for w, pv := range parent {
					if pv == graph.VID(w) || pv == unclaimed {
						t.Fatalf("%s %v %s chunk=%d: parent[%d] = %d leaked", name, g, tag, v.chunk, w, pv)
					}
					if pv == graph.None {
						roots++
					}
				}
				if want := graph.NumComponents(g); roots != want {
					t.Fatalf("%s %v %s chunk=%d: %d roots, want %d", name, g, tag, v.chunk, roots, want)
				}
			}
		}
	}
}

// TestLockstepChunkInvariantForest pins that the drain chunk — fixed at
// any size, or adaptive at any cap — is purely a cost-model parameter
// for the deterministic driver: the round-robin schedule pops one
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
// chunk configurations and asserts each matches fixed-1 exactly, in the
// forest and in the per-worker vertex counts.
func checkLockstepChunkInvariant(t *testing.T, g *graph.Graph) {
	t.Helper()
	variants := []struct {
		policy sched.ChunkPolicy
		chunk  int
	}{
		{sched.ChunkFixed, 2}, {sched.ChunkFixed, 16}, {sched.ChunkFixed, 64}, {sched.ChunkFixed, 1024},
		{sched.ChunkAdaptive, 0}, {sched.ChunkAdaptive, 8}, {sched.ChunkAdaptive, 512},
	}
	base, baseStats, err := LockstepForest(g, Options{NumProcs: 4, Seed: 5, ChunkPolicy: sched.ChunkFixed, ChunkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(g, base); err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		tag := v.policy.String()
		parent, stats, err := LockstepForest(g, Options{NumProcs: 4, Seed: 5, ChunkPolicy: v.policy, ChunkSize: v.chunk})
		if err != nil {
			t.Fatalf("%s chunk=%d: %v", tag, v.chunk, err)
		}
		for w := range parent {
			if parent[w] != base[w] {
				t.Fatalf("%s chunk=%d: parent[%d] = %d, differs from fixed-1's %d",
					tag, v.chunk, w, parent[w], base[w])
			}
		}
		for i := range stats.VerticesPerProc {
			if stats.VerticesPerProc[i] != baseStats.VerticesPerProc[i] {
				t.Fatalf("%s chunk=%d: worker %d claimed %d vertices, fixed-1 claimed %d",
					tag, v.chunk, i, stats.VerticesPerProc[i], baseStats.VerticesPerProc[i])
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
