package core

import (
	"sync/atomic"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/verify"
)

// fig4Families builds small instances of the ten Fig. 4 graph families —
// the same shapes the harness measures, scaled down for test time.
func fig4Families() map[string]*graph.Graph {
	n := 1 << 10
	s := 32
	return map[string]*graph.Graph{
		"torus":        gen.Torus2D(s, s),
		"torus-random": graph.RandomRelabel(gen.Torus2D(s, s), 0xA5A5),
		"random-nlogn": gen.Random(n, n*10, 7),
		"mesh2d":       gen.Mesh2D(s, s, 0.60, 7),
		"mesh3d":       gen.Mesh3D(10, 10, 10, 0.40, 7),
		"ad3":          gen.AD3(n, 7),
		"geo-flat":     gen.GeoFlat(n, gen.DefaultGeoFlatParams(), 7),
		"geo-hier":     gen.GeoHier(n, gen.DefaultGeoHierParams(), 7),
		"chain":        gen.Chain(n),
		"chain-random": graph.RandomRelabel(gen.Chain(n), 0x5A5A),
	}
}

// checkRoots asserts that a run's reported root count matches both a
// scan of the forest it returned and the graph's component count.
func checkRoots(t *testing.T, label string, g *graph.Graph, parent []graph.VID, st *Stats, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	_, comps := graph.Components(g)
	if scan := countRoots(parent); st.Roots != scan || scan != comps {
		t.Fatalf("%s: Stats.Roots = %d, forest scan %d, components %d", label, st.Roots, scan, comps)
	}
}

// TestReportedRootCount pins the counted root number that replaced the
// post-run scan: the stub's root plus one per quiescence seed must equal
// the forest's real root count on every Fig. 4 family, under both
// one-shot drivers and a pooled Workspace, and through the degree-2
// reduction.
func TestReportedRootCount(t *testing.T) {
	for name, g := range fig4Families() {
		for _, p := range []int{1, 2, 4, 8} {
			o := Options{NumProcs: p, Seed: 5}
			for dname, run := range drivers() {
				parent, st, err := run(g, o)
				checkRoots(t, name+" "+dname, g, parent, &st, err)
			}
			if p == 4 {
				for dname, run := range drivers() {
					parent, st, err := run(g, Options{NumProcs: p, Seed: 5, Deg2Eliminate: true})
					checkRoots(t, name+" deg2 "+dname, g, parent, &st, err)
				}
			}
			w, err := NewWorkspace(g, o)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 2; seed++ {
				parent, st, err := w.Run(seed)
				checkRoots(t, name+" workspace", g, parent, st, err)
			}
			w.Close()
		}
	}
}

// TestReportedRootCountFallbackAndDegraded covers the two paths that
// count explicitly: the SV fallback on the chain, and the sequential
// BFS a worker panic degrades to.
func TestReportedRootCountFallbackAndDegraded(t *testing.T) {
	chain := graph.Union(gen.Chain(1<<12), gen.Chain(1<<11), gen.Chain(3))
	fb := Options{NumProcs: 4, Seed: 3, FallbackThreshold: 2}
	parent, st, err := LockstepForest(chain, fb)
	if !st.FallbackTriggered {
		t.Fatal("lockstep: fallback did not trigger on the chains")
	}
	checkRoots(t, "lockstep fallback", chain, parent, &st, err)
	parent, st, err = SpanningForest(chain, fb)
	checkRoots(t, "concurrent fallback", chain, parent, &st, err)
	w, err := NewWorkspace(chain, fb)
	if err != nil {
		t.Fatal(err)
	}
	wp, wst, err := w.Run(3)
	checkRoots(t, "workspace fallback", chain, wp, wst, err)
	w.Close()

	g := gen.Random(2000, 1500, 5) // many components
	for name, run := range drivers() {
		var hits atomic.Int64
		o := WithTestHook(Options{NumProcs: 4, Seed: 13}, func(int) {
			if hits.Add(1) == 3 {
				panic("injected test panic")
			}
		})
		parent, st, err := run(g, o)
		if !st.DegradedToSeq {
			t.Fatalf("%s: panic did not degrade the run", name)
		}
		checkRoots(t, name+" degraded", g, parent, &st, err)
	}
	var hits atomic.Int64
	w, err = NewWorkspace(g, WithTestHook(Options{NumProcs: 4}, func(int) {
		if hits.Add(1) == 3 {
			panic("injected test panic")
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for seed := uint64(1); seed <= 2; seed++ {
		parent, st, err := w.Run(seed)
		if seed == 1 && !st.DegradedToSeq {
			t.Fatal("workspace: panic did not degrade the run")
		}
		checkRoots(t, "workspace", g, parent, st, err)
	}
}
