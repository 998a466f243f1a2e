package conncomp

import (
	"testing"
	"testing/quick"

	"spantree/internal/gen"
	"spantree/internal/graph"
)

func TestLabelsMatchReference(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16, pRaw uint8) bool {
		n := int(nRaw%250) + 1
		m := int(mRaw % 400)
		p := int(pRaw%5) + 1
		g := gen.Random(n, m, seed)
		labels, count, err := Labels(g, p, seed)
		if err != nil {
			return false
		}
		ref, refCount := graph.Components(g)
		if count != refCount {
			return false
		}
		// Same partition under a possibly different label numbering.
		seen := map[graph.VID]graph.VID{}
		for v := range labels {
			if prev, ok := seen[labels[v]]; ok {
				if prev != ref[v] {
					return false
				}
			} else {
				seen[labels[v]] = ref[v]
			}
		}
		return len(seen) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLabelsAreDense(t *testing.T) {
	g := graph.Union(gen.Star(5), gen.Chain(4), gen.Cycle(6))
	labels, count, err := Labels(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	seen := make([]bool, count)
	for _, l := range labels {
		if l < 0 || int(l) >= count {
			t.Fatalf("label %d out of [0,%d)", l, count)
		}
		seen[l] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("label %d unused", i)
		}
	}
}

func TestFromForestRejectsCycles(t *testing.T) {
	parent := []graph.VID{1, 2, 0} // 3-cycle
	if _, _, err := FromForest(parent); err == nil {
		t.Fatal("cyclic parent array accepted")
	}
}

// TestFromForestRejectsCycleShapes: the walk must reject every other
// non-forest shape, including a self-loop and cycles with trees hanging
// off them.
func TestFromForestRejectsCycleShapes(t *testing.T) {
	cases := map[string][]graph.VID{
		"self-loop":   {graph.None, 1, graph.None},
		"2-cycle":     {1, 0, graph.None},
		"4-cycle":     {1, 2, 3, 0},
		"cycle+trees": {graph.None, 0, 3, 2, 2, 1},
	}
	for name, parent := range cases {
		if _, _, err := FromForest(parent); err == nil {
			t.Fatalf("%s: non-forest accepted", name)
		}
	}
}

func TestFromForestEmpty(t *testing.T) {
	labels, count, err := FromForest(nil)
	if err != nil || count != 0 || len(labels) != 0 {
		t.Fatalf("empty forest: %v %d %v", labels, count, err)
	}
}

func TestFromForestSingletons(t *testing.T) {
	parent := []graph.VID{graph.None, graph.None, graph.None}
	labels, count, err := FromForest(parent)
	if err != nil || count != 3 {
		t.Fatalf("count %d err %v", count, err)
	}
	for i, l := range labels {
		if int(l) != i {
			t.Fatalf("labels %v", labels)
		}
	}
}
