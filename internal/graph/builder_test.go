package graph

import (
	"fmt"
	"sort"
	"testing"

	"spantree/internal/xrand"
)

// referenceBuild is the comparison-sort construction that Build
// replaced, kept as its oracle: sort the canonical edges and drop
// repeats, scatter both directions of each edge, then sort every
// neighbour list.
func referenceBuild(n int, edges []Edge) *Graph {
	es := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U != e.V {
			es = append(es, e.Canon())
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	uniq := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			uniq = append(uniq, e)
		}
	}
	offs := make([]int64, n+1)
	for _, e := range uniq {
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	adj := make([]VID, offs[n])
	next := make([]int64, n)
	copy(next, offs[:n])
	for _, e := range uniq {
		adj[next[e.U]] = e.V
		next[e.U]++
		adj[next[e.V]] = e.U
		next[e.V]++
	}
	for v := 0; v < n; v++ {
		nb := adj[offs[v]:offs[v+1]]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return &Graph{Offs: offs, Adj: adj}
}

// fuzzEdges decodes a fuzz input into a vertex count and an edge list:
// the first byte picks n ≤ 64 and each following byte pair is an edge
// taken mod n, so inputs carry self-loops, duplicates and both
// orientations of an edge. ok is false for the empty input.
func fuzzEdges(data []byte) (n int, edges []Edge, ok bool) {
	if len(data) == 0 {
		return 0, nil, false
	}
	n = int(data[0]) % 65
	for i := 1; n > 0 && i+1 < len(data); i += 2 {
		edges = append(edges, Edge{VID(int(data[i]) % n), VID(int(data[i+1]) % n)})
	}
	return n, edges, true
}

// FuzzBuild holds Build to the reference construction, on inputs
// decoded by fuzzEdges.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{0})                                // n = 0
	f.Add([]byte{1, 0, 0})                          // n = 1, one self-loop
	f.Add([]byte{9})                                // edgeless
	f.Add([]byte{4, 1, 2, 1, 2, 2, 1, 1, 2})        // all duplicates
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5})  // star
	f.Add([]byte{3, 0, 2, 2, 0})                    // both orientations
	f.Add([]byte{64, 63, 0, 7, 3, 3, 7, 40, 40, 1}) // mixed, n = 64
	f.Fuzz(func(t *testing.T, data []byte) {
		n, edges, ok := fuzzEdges(data)
		if !ok {
			return
		}
		b := NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e.U, e.V)
		}
		g := b.Build()
		if want := referenceBuild(n, edges); !g.Equal(want) {
			t.Fatalf("n=%d edges=%v:\nBuild     offs=%v adj=%v\nreference offs=%v adj=%v",
				n, edges, g.Offs, g.Adj, want.Offs, want.Adj)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d edges=%v: %v", n, edges, err)
		}
		if again := b.Build(); !again.Equal(g) {
			t.Fatalf("n=%d edges=%v: a second Build differs", n, edges)
		}
	})
}

// torusEdges lists the side x side torus's edges in row-major order,
// both neighbours of a vertex at a time, as the torus generator adds
// them.
func torusEdges(side int) []Edge {
	id := func(r, c int) VID { return VID(r*side + c) }
	es := make([]Edge, 0, 2*side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			es = append(es, Edge{id(r, c), id(r, (c+1)%side)}, Edge{id(r, c), id((r+1)%side, c)})
		}
	}
	return es
}

// randomEdges draws m uniformly random vertex pairs, self-loops and
// repeats included.
func randomEdges(n, m int, seed uint64) []Edge {
	r := xrand.New(seed)
	es := make([]Edge, m)
	for i := range es {
		es[i] = Edge{r.Int31n(int32(n)), r.Int31n(int32(n))}
	}
	return es
}

func builderOf(n int, edges []Edge) *Builder {
	b := NewBuilder(n)
	b.Reserve(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b
}

// buildInputs are the edge lists BenchmarkBuild and the allocation test
// build: a torus and a random list of 1.5n pairs at n.
func buildInputs(n, side int) map[string][]Edge {
	return map[string][]Edge{
		fmt.Sprintf("torus-%d", n):  torusEdges(side),
		fmt.Sprintf("random-%d", n): randomEdges(n, 3*n/2, 1),
	}
}

// TestBuildAllocsConstant pins Build's allocation count: the same small
// constant at every size, where a per-vertex sort would allocate Θ(n).
func TestBuildAllocsConstant(t *testing.T) {
	want := -1.0
	for _, sz := range []struct{ n, side int }{{4096, 64}, {65536, 256}} {
		for name, edges := range buildInputs(sz.n, sz.side) {
			b := builderOf(sz.n, edges)
			got := testing.AllocsPerRun(3, func() { b.Build() })
			if got > 8 {
				t.Errorf("%s: Build made %.0f allocations, want at most 8", name, got)
			}
			if want < 0 {
				want = got
			} else if got != want {
				t.Errorf("%s: Build made %.0f allocations, %.0f on another input", name, got, want)
			}
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	inputs := buildInputs(65536, 256)
	for _, name := range []string{"torus-65536", "random-65536"} {
		bld := builderOf(65536, inputs[name])
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bld.Build()
			}
		})
	}
}
