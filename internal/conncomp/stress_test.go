package conncomp

import (
	"reflect"
	"testing"
	"testing/quick"

	"spantree/internal/graph"
	"spantree/internal/par"
	"spantree/internal/xrand"
)

// These tests are the data-race certificate for the pointer-jumping
// labeler on the shared dynamic scheduler, in the style of the wsq batch
// stress tests: model-check FromForestP against the sequential walk over
// random forests and processor counts, with the real concurrent
// scheduler underneath (run them under -race). Every input gives each
// worker at least two par.DefaultChunkSize drains at p >= 2 (the model
// check four), so a worker still holds a stealable range while it works
// through its first chunk.

// randomForest builds a random parent array with the given number of
// vertices: each vertex either becomes a root or attaches to a random
// earlier vertex under a random relabeling, so arbitrary shapes (deep
// paths, wide stars, mixes) appear without ever creating a cycle.
func randomForest(n int, seed uint64) []graph.VID {
	r := xrand.New(seed)
	perm := make([]graph.VID, n)
	for i := range perm {
		perm[i] = graph.VID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(r.Intn(i + 1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	parent := make([]graph.VID, n)
	for i := 0; i < n; i++ {
		v := perm[i]
		if i == 0 || r.Intn(8) == 0 {
			parent[v] = graph.None
		} else {
			parent[v] = perm[int(r.Intn(i))]
		}
	}
	return parent
}

// TestFromForestPModelCheck: the parallel labeling must be identical —
// labels, not just the partition — to the sequential reference on any
// forest and any processor count.
func TestFromForestPModelCheck(t *testing.T) {
	f := func(seed uint64, nRaw uint16, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		n := 4*par.DefaultChunkSize*p + int(nRaw%2000)
		parent := randomForest(n, seed)
		want, wantCount, err := FromForest(parent)
		if err != nil {
			return false
		}
		got, gotCount, err := FromForestP(parent, Options{NumProcs: p})
		if err != nil {
			return false
		}
		return gotCount == wantCount && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFromForestPRejectsCycles: the pointer-jumping driver must reject
// every non-forest the sequential walk rejects, including the shapes
// that converge in place (self-loops, power-of-two cycles) and the ones
// that never converge (odd cycles).
func TestFromForestPRejectsCycles(t *testing.T) {
	cases := map[string][]graph.VID{
		"3-cycle":     {1, 2, 0},
		"self-loop":   {graph.None, 1, graph.None},
		"2-cycle":     {1, 0, graph.None},
		"4-cycle":     {1, 2, 3, 0},
		"cycle+trees": {graph.None, 0, 3, 2, 2, 1},
	}
	for name, parent := range cases {
		if _, _, err := FromForest(parent); err == nil {
			t.Fatalf("%s: sequential walk accepted a non-forest", name)
		}
		for _, p := range []int{2, 4, 8} {
			if _, _, err := FromForestP(parent, Options{NumProcs: p}); err == nil {
				t.Fatalf("%s: FromForestP(p=%d) accepted a non-forest", name, p)
			}
		}
	}
}

// TestFromForestPStress hammers one big mixed forest concurrently at
// several processor counts: a deep path (worst case for jumping rounds)
// unioned with wide stars (worst case for write contention on one
// round).
func TestFromForestPStress(t *testing.T) {
	const n = 1 << 15
	parent := make([]graph.VID, n)
	// Vertices [0, n/2): one deep path. [n/2, n): stars of 256 leaves.
	parent[0] = graph.None
	for v := 1; v < n/2; v++ {
		parent[v] = graph.VID(v - 1)
	}
	for v := n / 2; v < n; v++ {
		if (v-n/2)%256 == 0 {
			parent[v] = graph.None
		} else {
			parent[v] = graph.VID(v - (v-n/2)%256)
		}
	}
	want, wantCount, err := FromForest(parent)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Options{
		{NumProcs: 2},
		{NumProcs: 3},
		{NumProcs: 4},
		{NumProcs: 8},
	} {
		got, gotCount, err := FromForestP(parent, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if gotCount != wantCount || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: labeling differs from sequential reference", cfg)
		}
	}
}
