package core

import (
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/sched"
	"spantree/internal/smpmodel"
	"spantree/internal/verify"
)

// TestMinStealLenScaling pins the p-scaled steal threshold: max(2, p/2).
// These exact values are load-bearing — lowering them reintroduces the
// bursty re-idling on small graphs at high p, raising them starves
// thieves on two-processor runs.
func TestMinStealLenScaling(t *testing.T) {
	want := map[int]int{1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 8: 4, 16: 8, 32: 16}
	for p, w := range want {
		if got := sched.MinStealLen(p); got != w {
			t.Errorf("sched.MinStealLen(%d) = %d, want %d", p, got, w)
		}
	}
	// The traversal must wire it from NumProcs.
	topt := Options{NumProcs: 8}
	tr, _ := newTeam(gen.Chain(10), topt.withDefaults())
	if tr.minSteal != 4 {
		t.Errorf("traversal minSteal = %d at p=8, want 4", tr.minSteal)
	}
}

// TestChunkPolicyNames pins that the zero Options run the adaptive
// controller (the CLI vocabulary itself is sched's).
func TestChunkPolicyNames(t *testing.T) {
	var zero Options
	if o := zero.withDefaults(); o.ChunkPolicy != sched.ChunkAdaptive || o.ChunkSize != 0 {
		t.Fatalf("zero Options resolve to %v/%d, want adaptive/0", o.ChunkPolicy, o.ChunkSize)
	}
	fixed := Options{ChunkPolicy: sched.ChunkFixed}
	if o := fixed.withDefaults(); o.ChunkSize != DefaultChunkSize {
		t.Fatalf("fixed policy ChunkSize = %d, want DefaultChunkSize", o.ChunkSize)
	}
}

// The chunk controller's dynamics tests moved with the controller to
// internal/sched (TestControllerAdapts); what stays here is the wiring:
// the traversal must build its controllers from Options and its
// per-victim failed-steal signal with one slot per processor.
func TestControllerWiring(t *testing.T) {
	topt := Options{NumProcs: 8, ChunkPolicy: sched.ChunkAdaptive, ChunkSize: 4}
	tr, _ := newTeam(gen.Chain(10), topt.withDefaults())
	var ws workerState
	tr.resetWorkerState(0, &ws)
	if ws.ctrl.Chunk() != 4 || ws.ctrl.Max() != 4 || len(ws.chunk) != 4 {
		t.Fatalf("ChunkSize cap not wired: %d/%d (buffer %d), want 4/4",
			ws.ctrl.Chunk(), ws.ctrl.Max(), len(ws.chunk))
	}
	tr.fail.Record(7)
	if tr.fail.Load(7) != 1 || tr.fail.Load(0) != 0 {
		t.Fatal("per-victim fail signal not wired per processor")
	}
}

// TestAdaptiveQuiescenceExactOnDisconnected drives the invariant the
// adaptive chunk must not break: progress counts are exact at every
// busy-to-idle transition, so quiescence seeds exactly one root per
// component — an undercount hangs the traversal, an overcount ends it
// early with orphaned vertices. Run under -race this also checks the
// controller adds no unsynchronized shared state.
func TestAdaptiveQuiescenceExactOnDisconnected(t *testing.T) {
	g := graph.Union(gen.Chain(500), gen.Torus2D(16, 16), gen.Star(120),
		gen.Random(400, 300, 3), gen.Chain(1), gen.Cycle(64))
	wantComps := graph.NumComponents(g)
	for name, run := range drivers() {
		for seed := uint64(0); seed < 8; seed++ {
			parent, _, err := run(g, Options{NumProcs: 8, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			roots := 0
			for _, pv := range parent {
				if pv == graph.None {
					roots++
				}
			}
			if roots != wantComps {
				t.Fatalf("%s seed=%d: %d roots, want %d — quiescence count drifted",
					name, seed, roots, wantComps)
			}
		}
	}
}

// TestAdaptiveObsCounters checks that the adaptive runtime reports its
// activity: drains and drained vertices on both drivers, controller
// growth on a deep-frontier input, and a high-water at least the
// starting chunk. The fixed policy must report no controller steps.
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
		if tot.ChunkGrow == 0 {
			t.Errorf("%s: controller never grew on a deep torus frontier", name)
		}
		if tot.ChunkHighWater < sched.AdaptiveInitChunk {
			t.Errorf("%s: chunk high-water %d below the starting chunk %d",
				name, tot.ChunkHighWater, sched.AdaptiveInitChunk)
		}
		if tot.DrainHist == nil {
			t.Errorf("%s: no drain-size histogram", name)
		}

		rec = obs.New(2)
		if _, _, err := run(g, Options{NumProcs: 2, Seed: 11, Obs: rec, ChunkPolicy: sched.ChunkFixed}); err != nil {
			t.Fatalf("%s fixed: %v", name, err)
		}
		tot = rec.Snapshot().Totals
		if tot.ChunkGrow != 0 || tot.ChunkShrink != 0 {
			t.Errorf("%s fixed: controller stepped (grow=%d shrink=%d)", name, tot.ChunkGrow, tot.ChunkShrink)
		}
	}
}

// TestLockstepAdaptiveDeterministic pins that the adaptive controller
// keeps the lockstep driver's determinism: two runs with equal options
// produce identical forests, cost triplets, and controller counters.
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
		a.totals.ChunkGrow != b.totals.ChunkGrow ||
		a.totals.ChunkShrink != b.totals.ChunkShrink {
		t.Fatalf("controller counters differ: %+v vs %+v", a.totals, b.totals)
	}
}
