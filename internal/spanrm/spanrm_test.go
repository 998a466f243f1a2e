package spanrm

import (
	"testing"
	"testing/quick"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/verify"
)

func TestSpanningForestShapes(t *testing.T) {
	shapes := []*graph.Graph{
		gen.Chain(0), gen.Chain(1), gen.Chain(2), gen.Chain(64),
		gen.Star(40), gen.Cycle(33), gen.Complete(15),
		gen.Torus2D(7, 7), gen.Random(150, 220, 1),
		graph.Union(gen.Chain(8), gen.Star(6), gen.Cycle(5)),
	}
	for _, g := range shapes {
		for _, p := range []int{1, 2, 5} {
			parent, st, err := SpanningForest(g, Options{NumProcs: p, Seed: 7})
			if err != nil {
				t.Fatalf("%v p=%d: %v", g, p, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%v p=%d: %v", g, p, err)
			}
			wantEdges := g.NumVertices() - graph.NumComponents(g)
			if st.Hooks != wantEdges {
				t.Fatalf("%v p=%d: %d hooks, want %d", g, p, st.Hooks, wantEdges)
			}
		}
	}
}

func TestSpanningForestProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, pRaw uint8) bool {
		n := int(nRaw%150) + 1
		m := int(mRaw % 300)
		p := int(pRaw%4) + 1
		g := gen.Random(n, m, seed)
		parent, _, err := SpanningForest(g, Options{NumProcs: p, Seed: seed ^ 0xF00})
		return err == nil && verify.Forest(g, parent) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelingInsensitivity(t *testing.T) {
	// Random mating's round count is driven by coin flips, not labels:
	// both labelings of the same chain should take a similar number of
	// rounds (within a factor ~2), unlike SV's 2 vs ~log n contrast.
	n := 1 << 11
	seqChain := gen.Chain(n)
	randChain := graph.RandomRelabel(seqChain, 55)
	_, stSeq, err := SpanningForest(seqChain, Options{NumProcs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stRand, err := SpanningForest(randChain, Options{NumProcs: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := stSeq.Rounds, stRand.Rounds
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > 2*lo+4 {
		t.Fatalf("round counts %d vs %d differ too much for a labeling-insensitive algorithm",
			stSeq.Rounds, stRand.Rounds)
	}
}

func TestSeedsChangeShapeNotValidity(t *testing.T) {
	g := gen.Random(200, 300, 9)
	a, _, err := SpanningForest(g, Options{NumProcs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := SpanningForest(g, Options{NumProcs: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if verify.Forest(g, a) != nil || verify.Forest(g, b) != nil {
		t.Fatal("invalid forest")
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("note: two seeds produced identical trees (possible but unlikely)")
	}
}

func TestRejectsBadOptions(t *testing.T) {
	if _, _, err := SpanningForest(gen.Chain(4), Options{NumProcs: 0}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestMaxRoundsCap(t *testing.T) {
	// An absurdly small cap must surface as an error, not a bad tree.
	g := gen.Random(300, 450, 3)
	_, _, err := SpanningForest(g, Options{NumProcs: 2, Seed: 3, MaxRounds: 1})
	if err == nil {
		t.Skip("converged in one round (possible on this seed)")
	}
}
