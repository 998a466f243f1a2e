package core

import (
	"sync/atomic"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/verify"
)

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
// post-run scan: one root per team plus one per quiescence seed minus
// one per stitch hook must equal the forest's real root count on every
// Fig. 4 family, under both one-shot drivers and a pooled Workspace, at
// one and several shards, and through the degree-2 reduction.
func TestReportedRootCount(t *testing.T) {
	for name, g := range fig4Families() {
		for _, p := range []int{1, 2, 4, 8} {
			for _, sh := range []int{1, 4} {
				o := Options{NumProcs: p, Seed: 5, Shards: sh}
				for dname, run := range drivers() {
					parent, st, err := run(g, o)
					checkRoots(t, name+" "+dname, g, parent, &st, err)
				}
				if p == 4 && sh == 1 {
					for dname, run := range drivers() {
						parent, st, err := run(g, Options{NumProcs: p, Seed: 5, Deg2Eliminate: true})
						checkRoots(t, name+" deg2 "+dname, g, parent, &st, err)
					}
				}
				w, err := NewWorkspace(g, o, WorkspaceOptions{})
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
	w, err := NewWorkspace(chain, fb, WorkspaceOptions{})
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
	}), WorkspaceOptions{})
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
