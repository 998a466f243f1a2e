package spansv

import (
	"testing"
	"testing/quick"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/par"
	"spantree/internal/verify"
)

// These tests are the data-race certificate for SV on the shared dynamic
// scheduler (par.ForDynamic), in the style of the wsq batch stress
// tests: run the real concurrent scheduler — range publishing, chunked
// drains, steal-half on index ranges — under -race across processor
// counts, and model-check the results against sequential references
// that do not depend on the schedule. Every input gives each worker at
// least two par.DefaultChunkSize drains at p >= 2 (the model check
// four), so a worker still holds a stealable range while it works
// through its first chunk.

// TestSVDynamicSchedulerStress drives the full graft-and-shortcut loop
// on skewed and multi-component inputs. The hub-heavy star slabs
// concentrate the election sweep's work in a few indices, which is
// exactly the shape that makes thieves raid the loaded worker's range.
func TestSVDynamicSchedulerStress(t *testing.T) {
	g := graph.Union(gen.Star(4000), gen.Torus2D(32, 32), gen.Chain(700),
		gen.Random(1500, 2500, 5), gen.Star(900), gen.Chain(1))
	wantComps := graph.NumComponents(g)
	for _, p := range []int{1, 2, 4, 8} {
		if n := g.NumVertices(); n < 2*par.DefaultChunkSize*p {
			t.Fatalf("p=%d: %d vertices give a worker fewer than two chunks", p, n)
		}
		for rep := 0; rep < 12; rep++ {
			parent, _, err := SpanningForest(g, Options{NumProcs: p}, false)
			if err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("p=%d: %v", p, err)
			}
			roots := 0
			for _, pv := range parent {
				if pv == graph.None {
					roots++
				}
			}
			if roots != wantComps {
				t.Fatalf("p=%d: %d roots, want %d", p, roots, wantComps)
			}
		}
	}
}

// TestSVLabelsModelCheck model-checks the SV labeling over random graphs
// and processor counts: whatever the steal schedule, d[v] must converge
// to the minimum vertex id of v's component — the schedule-independent
// fixpoint of graft-to-smaller-label. The reference is the sequential
// BFS labeling, which assigns component ids in smallest-vertex order.
func TestSVLabelsModelCheck(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		n := 4*par.DefaultChunkSize*p + int(nRaw%300)
		m := int(mRaw) % (2 * n)
		g := gen.Random(n, m, seed)
		label, comps, err := components(g, Options{NumProcs: p})
		if err != nil {
			return false
		}
		ref, refComps := graph.Components(g)
		if comps != refComps {
			return false
		}
		// label[v] is the min vertex of v's component; ref ids are dense in
		// smallest-vertex order, so equal-ref ⇔ equal-label.
		firstOf := map[graph.VID]graph.VID{}
		for v := 0; v < n; v++ {
			if first, ok := firstOf[ref[v]]; ok {
				if label[v] != first {
					return false
				}
			} else {
				firstOf[ref[v]] = label[v]
				if int(label[v]) > v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
