package spantree

import (
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
)

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

func TestConnectedComponentsCount(t *testing.T) {
	g := graph.Union(gen.Chain(5), gen.Chain(5))
	count, err := ConnectedComponentsCount(g, 2, 1)
	if err != nil || count != 2 {
		t.Fatalf("count=%d err=%v", count, err)
	}
}
