package core

import (
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/par"
	"spantree/internal/smpmodel"
	"spantree/internal/verify"
)

// TestMinStealLenScaling checks that the traversal wires the p-scaled
// steal threshold (par.MinStealLen, whose values par pins) from
// NumProcs.
func TestMinStealLenScaling(t *testing.T) {
	topt := Options{NumProcs: 8}
	tr, _ := newTeam(gen.Chain(10), topt.withDefaults())
	if tr.minSteal != 4 {
		t.Errorf("traversal minSteal = %d at p=8, want 4", tr.minSteal)
	}
}

// TestControllerWiring pins the drain-chunk wiring: zero Options
// resolve to par.DefaultChunkSize, and a worker's drain buffer is
// exactly the run's chunk, in a one-shot and in a pooled Workspace.
func TestControllerWiring(t *testing.T) {
	var zero Options
	if o := zero.withDefaults(); o.ChunkSize != par.DefaultChunkSize {
		t.Fatalf("zero Options resolve to chunk %d, want %d", o.ChunkSize, par.DefaultChunkSize)
	}
	g := gen.Chain(10)
	for _, chunk := range []int{0, 1, 4} {
		topt := Options{NumProcs: 8, ChunkSize: chunk}
		want := topt.withDefaults().ChunkSize
		single, err := newWorkspace(g, topt.withDefaults(), false)
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := NewWorkspace(g, topt)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range map[string]*Workspace{"one-shot": single, "pooled": pooled} {
			got := len(w.wss[7].chunk)
			w.Close()
			if got != want {
				t.Fatalf("ChunkSize %d: %s drain buffer %d, want %d", chunk, name, got, want)
			}
		}
	}
}

// TestAdaptiveQuiescenceExactOnDisconnected drives the invariant the
// batched drain must not break, at chunk 1 and at the default chunk:
// progress counts are exact at every busy-to-idle transition, so
// quiescence seeds exactly one root per component — an undercount hangs
// the traversal, an overcount ends it early with orphaned vertices.
func TestAdaptiveQuiescenceExactOnDisconnected(t *testing.T) {
	g := graph.Union(gen.Chain(500), gen.Torus2D(16, 16), gen.Star(120),
		gen.Random(400, 300, 3), gen.Chain(1), gen.Cycle(64))
	wantComps := graph.NumComponents(g)
	for name, run := range drivers() {
		for _, chunk := range []int{1, 0} {
			for seed := uint64(0); seed < 8; seed++ {
				parent, _, err := run(g, Options{NumProcs: 8, Seed: seed, ChunkSize: chunk})
				if err != nil {
					t.Fatalf("%s chunk=%d seed=%d: %v", name, chunk, seed, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%s chunk=%d seed=%d: %v", name, chunk, seed, err)
				}
				roots := 0
				for _, pv := range parent {
					if pv == graph.None {
						roots++
					}
				}
				if roots != wantComps {
					t.Fatalf("%s chunk=%d seed=%d: %d roots, want %d — quiescence count drifted",
						name, chunk, seed, roots, wantComps)
				}
			}
		}
	}
}

// TestAdaptiveObsCounters checks that the batched runtime reports its
// drain accounting on both drivers: drains, at least one drained vertex
// per drain, and the drain-size histogram.
func TestAdaptiveObsCounters(t *testing.T) {
	g := gen.Torus2D(64, 64)
	for name, run := range drivers() {
		rec := obs.New(2)
		if _, _, err := run(g, Options{NumProcs: 2, Seed: 11, Obs: rec}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tot := rec.Snapshot().Totals
		if tot.ChunkDrains == 0 || tot.DrainedVertices == 0 {
			t.Errorf("%s: no drain accounting: %+v", name, tot)
		}
		if tot.DrainedVertices < tot.ChunkDrains {
			t.Errorf("%s: %d vertices over %d drains", name, tot.DrainedVertices, tot.ChunkDrains)
		}
		if tot.DrainHist == nil {
			t.Errorf("%s: no drain-size histogram", name)
		}
	}
}

// TestLockstepAdaptiveDeterministic pins the lockstep driver's
// determinism under the default chunk: two runs with equal options
// produce identical forests, cost triplets, and drain counters.
func TestLockstepAdaptiveDeterministic(t *testing.T) {
	g := gen.GeoHier(2000, gen.DefaultGeoHierParams(), 9)
	type outcome struct {
		parent  []graph.VID
		triplet string
		totals  obs.Counters
	}
	runIt := func() outcome {
		m := smpmodel.New(4)
		rec := obs.New(4)
		parent, _, err := LockstepForest(g, Options{NumProcs: 4, Seed: 17, Model: m, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{parent, m.Triplet(), rec.Snapshot().Totals}
	}
	a, b := runIt(), runIt()
	for v := range a.parent {
		if a.parent[v] != b.parent[v] {
			t.Fatalf("forest differs at %d: %d vs %d", v, a.parent[v], b.parent[v])
		}
	}
	if a.triplet != b.triplet {
		t.Fatalf("cost triplet differs: %s vs %s", a.triplet, b.triplet)
	}
	if a.totals.ChunkDrains != b.totals.ChunkDrains ||
		a.totals.DrainedVertices != b.totals.DrainedVertices {
		t.Fatalf("drain counters differ: %+v vs %+v", a.totals, b.totals)
	}
}
