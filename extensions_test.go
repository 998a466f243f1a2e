package spantree

import (
	"math"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
)

func TestFindMST(t *testing.T) {
	g := NewConnectedRandomGraph(500, 900, 3)
	res, err := FindMST(g, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeEdges != 499 {
		t.Fatalf("MST edges = %d, want 499", res.TreeEdges)
	}
	_, wantWeight := ReferenceMST(g, nil)
	if math.Abs(res.TotalWeight-wantWeight) > 1e-9 {
		t.Fatalf("MST weight %v, Kruskal reference %v", res.TotalWeight, wantWeight)
	}
	if res.Rounds < 1 {
		t.Fatal("no Borůvka rounds recorded")
	}
	if err := Verify(g, res.Parent); err != nil {
		t.Fatal(err)
	}
	if _, err := FindMST(nil, 2, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestFindMSTCustomWeights(t *testing.T) {
	g := NewTorus2D(8, 8)
	// Weight = canonical edge id order: the MST prefers low-id edges.
	w := func(u, v VID) float64 {
		e := Edge{U: u, V: v}.Canon()
		return float64(e.U)*1e6 + float64(e.V)
	}
	res, err := FindMST(g, 3, w)
	if err != nil {
		t.Fatal(err)
	}
	edges, want := ReferenceMST(g, w)
	if len(edges) != res.TreeEdges {
		t.Fatalf("edge count %d vs reference %d", res.TreeEdges, len(edges))
	}
	if math.Abs(res.TotalWeight-want) > 1e-6 {
		t.Fatalf("weight %v vs reference %v", res.TotalWeight, want)
	}
}

func TestFindMSTRejectsNaNWeights(t *testing.T) {
	g := NewTorus2D(6, 6)
	w := func(u, v VID) float64 {
		if e := (Edge{U: u, V: v}).Canon(); e == (Edge{U: 0, V: 1}) {
			return math.NaN()
		}
		return 1
	}
	_, err := FindMST(g, 2, w)
	ve, ok := AsValidationError(err)
	if !ok {
		t.Fatalf("FindMST with a NaN weight: %v, want a *ValidationError", err)
	}
	if ve.Code != graph.NaNWeight {
		t.Fatalf("code %v, want %v", ve.Code, graph.NaNWeight)
	}
}

func TestFindRandomMating(t *testing.T) {
	g := graph.Union(gen.Chain(40), gen.Cycle(30), gen.Star(20))
	res, err := FindRandomMating(g, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res.Parent); err != nil {
		t.Fatal(err)
	}
	if res.Roots != 3 {
		t.Fatalf("roots = %d, want 3", res.Roots)
	}
	if res.RandomMating == nil || res.RandomMating.Rounds == 0 {
		t.Fatal("random-mating stats missing")
	}
	if _, err := FindRandomMating(nil, 2, 1); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestBiconnectedComponentsAPI(t *testing.T) {
	g := NewChain(6)
	bc := BiconnectedComponents(g)
	if bc.NumComponents != 5 || len(bc.Bridges) != 5 {
		t.Fatalf("chain blocks=%d bridges=%d", bc.NumComponents, len(bc.Bridges))
	}
	if !bc.IsArticulation(2) || bc.IsArticulation(0) {
		t.Fatal("articulation classification wrong")
	}
}

func TestConnectedComponentsCount(t *testing.T) {
	g := graph.Union(gen.Chain(5), gen.Chain(5))
	count, err := ConnectedComponentsCount(g, 2, 1)
	if err != nil || count != 2 {
		t.Fatalf("count=%d err=%v", count, err)
	}
}

func TestPseudoDiameterAPI(t *testing.T) {
	if d := PseudoDiameter(NewChain(100), 50); d != 99 {
		t.Fatalf("chain pseudo-diameter %d", d)
	}
}

func TestEarsAPI(t *testing.T) {
	g := NewTorus2D(6, 6)
	d := Ears(g)
	if len(d.Bridges) != 0 {
		t.Fatal("torus has no bridges")
	}
	total := 0
	for _, c := range d.Chains {
		total += len(c) - 1
	}
	if total != g.NumEdges() {
		t.Fatalf("chains cover %d edges, want %d", total, g.NumEdges())
	}
	if !TwoEdgeConnected(g) || !IsBiconnected(g) {
		t.Fatal("torus misclassified")
	}
	if TwoEdgeConnected(NewChain(5)) {
		t.Fatal("chain misclassified")
	}
}
