package gen

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"spantree/internal/graph"
)

func TestAllKindsGenerateValidGraphs(t *testing.T) {
	for _, kind := range Kinds() {
		for _, n := range []int{0, 1, 2, 17, 256} {
			g, err := Generate(Spec{Kind: kind, N: n, Seed: 7})
			if err != nil {
				t.Fatalf("%s n=%d: %v", kind, n, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s n=%d: %v", kind, n, err)
			}
		}
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	if _, err := Generate(Spec{Kind: "nope", N: 10}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, s := range []Spec{
		{Kind: "random", N: -1},
		{Kind: "random", N: 100, M: -1},
		{Kind: "geometric", N: 100, K: -1},
		{Kind: "ad3", N: 100, K: -1},
	} {
		if _, err := Generate(s); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

// TestEdgeBound holds EdgeBound at or above the edge count of every
// kind's graph, with M and K at their defaults and set, and pins the
// bound where a spec's M, K or kind sets the edge count.
func TestEdgeBound(t *testing.T) {
	for _, kind := range Kinds() {
		for _, n := range []int{0, 1, 2, 3, 17, 256, 1000} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, s := range []Spec{
					{Kind: kind, N: n, Seed: seed},
					{Kind: kind, N: n, M: 7 * n, K: 9, Seed: seed},
				} {
					g, err := Generate(s)
					if err != nil {
						t.Fatal(err)
					}
					if b := EdgeBound(s); b < int64(g.NumEdges()) {
						t.Errorf("%+v: bound %d below its %d edges", s, b, g.NumEdges())
					}
				}
			}
		}
	}
	for _, c := range []struct {
		s    Spec
		want int64
	}{
		{Spec{Kind: "random", N: 1000}, 1500},
		{Spec{Kind: "random", N: 1000, M: 20001}, 20001},
		{Spec{Kind: "random", N: 10, M: 1000}, 45},
		{Spec{Kind: "complete", N: 1000}, 499500},
		{Spec{Kind: "geometric", N: 1000, K: 21}, 21000},
		{Spec{Kind: "geometric", N: 1 << 22, K: 1<<22 - 1}, (1 << 22) * (1<<22 - 1)},
		{Spec{Kind: "nope", N: 10}, 0},
	} {
		if got := EdgeBound(c.s); got != c.want {
			t.Errorf("EdgeBound(%+v) = %d, want %d", c.s, got, c.want)
		}
	}
	if strconv.IntSize == 64 {
		n := math.MaxInt32
		if got := EdgeBound(Spec{Kind: "complete", N: n + 1}); got != math.MaxInt64 {
			t.Errorf("EdgeBound beyond the int32 vertex range = %d, want the largest int64", got)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range Kinds() {
		a, err := Generate(Spec{Kind: kind, N: 200, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(Spec{Kind: kind, N: 200, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s: same spec produced different graphs", kind)
		}
	}
}

func TestGenerateRandomLabelOption(t *testing.T) {
	a, _ := Generate(Spec{Kind: "torus2d", N: 100, Seed: 3})
	b, _ := Generate(Spec{Kind: "torus2d", N: 100, Seed: 3, RandomLabel: true})
	if a.Equal(b) {
		t.Fatal("RandomLabel had no effect")
	}
	if a.NumEdges() != b.NumEdges() || a.MaxDegree() != b.MaxDegree() {
		t.Fatal("RandomLabel changed graph invariants")
	}
}

func TestTorus2DStructure(t *testing.T) {
	g := Torus2D(5, 7)
	if g.NumVertices() != 35 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// Every vertex of a (>=3)x(>=3) torus has degree exactly 4.
	g = Torus2D(4, 4)
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VID(v)) != 4 {
			t.Fatalf("torus vertex %d has degree %d", v, g.Degree(graph.VID(v)))
		}
	}
	if g.NumEdges() != 2*16 {
		t.Fatalf("4x4 torus edges = %d, want 32", g.NumEdges())
	}
	if !graph.IsConnected(g) {
		t.Fatal("torus not connected")
	}
	// Row-major wiring: vertex r*cols+c connects to its right neighbor.
	g = Torus2D(3, 5)
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) || !g.HasEdge(0, 5) || !g.HasEdge(0, 10) {
		t.Fatal("torus wraparound wiring wrong")
	}
	// 2x2 torus: wraparound and direct edges coincide; dedup keeps it simple.
	if g := Torus2D(2, 2); g.NumEdges() != 4 {
		t.Fatalf("2x2 torus edges = %d, want 4", g.NumEdges())
	}
}

func TestGrid2DStructure(t *testing.T) {
	g := Grid2D(3, 4)
	if g.NumEdges() != 3*3+2*4 {
		t.Fatalf("3x4 grid edges = %d, want 17", g.NumEdges())
	}
	if !graph.IsConnected(g) {
		t.Fatal("grid not connected")
	}
	if g.HasEdge(3, 4) {
		t.Fatal("grid wrapped around a row boundary")
	}
}

func TestMesh2DEdgeProbability(t *testing.T) {
	const side = 120
	g := Mesh2D(side, side, 0.60, 9)
	maxEdges := 2 * side * (side - 1)
	got := float64(g.NumEdges()) / float64(maxEdges)
	if math.Abs(got-0.60) > 0.02 {
		t.Fatalf("2D60 edge fraction %.3f, want ~0.60", got)
	}
	if Mesh2D(side, side, 0, 1).NumEdges() != 0 {
		t.Fatal("p=0 mesh has edges")
	}
	if Mesh2D(10, 10, 1, 1).NumEdges() != 2*10*9 {
		t.Fatal("p=1 mesh incomplete")
	}
}

func TestMesh3DEdgeProbability(t *testing.T) {
	const side = 24
	g := Mesh3D(side, side, side, 0.40, 9)
	maxEdges := 3 * side * side * (side - 1)
	got := float64(g.NumEdges()) / float64(maxEdges)
	if math.Abs(got-0.40) > 0.02 {
		t.Fatalf("3D40 edge fraction %.3f, want ~0.40", got)
	}
}

func TestRandomGraphProperties(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw%400) + 1
		m := int(mRaw % 800)
		g := Random(n, m, seed)
		want := m
		if max := n * (n - 1) / 2; want > max {
			want = max
		}
		return g.NumVertices() == n && g.NumEdges() == want && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomGraphClampsToComplete(t *testing.T) {
	g := Random(5, 1000, 1)
	if g.NumEdges() != 10 {
		t.Fatalf("clamped edges = %d, want 10", g.NumEdges())
	}
}

func TestRandomConnected(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%300) + 2
		g := RandomConnected(n, 3*n/2, seed)
		return graph.IsConnected(g) && g.NumEdges() >= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	if g := RandomConnected(1, 5, 1); g.NumVertices() != 1 || g.NumEdges() != 0 {
		t.Fatal("singleton case wrong")
	}
	if g := RandomConnected(0, 0, 1); g.NumVertices() != 0 {
		t.Fatal("empty case wrong")
	}
}

func TestGeometricKNN(t *testing.T) {
	g := Geometric(500, 4, 3)
	// Every vertex has degree >= k (k out-edges, symmetrized), and the
	// graph is k-ish regular: min degree exactly >= 4.
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(graph.VID(v)) < 4 {
			t.Fatalf("vertex %d has degree %d < k", v, g.Degree(graph.VID(v)))
		}
	}
	// Edge count between n*k/2 (fully mutual) and n*k (no mutual pairs).
	if m := g.NumEdges(); m < 500*4/2 || m > 500*4 {
		t.Fatalf("geometric edges = %d out of expected band", m)
	}
}

func TestGeometricBruteForceAgreement(t *testing.T) {
	// Compare the grid-based kNN against brute force on a small input:
	// the symmetrized edge sets must match exactly.
	const n, k = 60, 3
	const seed = 11
	g := Geometric(n, k, seed)

	// Recompute the points exactly as Geometric does.
	r := rng(seed, 'G')
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		type cand struct {
			d2 float64
			w  int
		}
		var cs []cand
		for w := 0; w < n; w++ {
			if w == v {
				continue
			}
			dx, dy := xs[w]-xs[v], ys[w]-ys[v]
			cs = append(cs, cand{dx*dx + dy*dy, w})
		}
		for i := 0; i < k; i++ {
			best := i
			for j := i + 1; j < len(cs); j++ {
				if cs[j].d2 < cs[best].d2 {
					best = j
				}
			}
			cs[i], cs[best] = cs[best], cs[i]
			b.AddEdge(graph.VID(v), graph.VID(cs[i].w))
		}
	}
	want := b.Build()
	if !g.Equal(want) {
		t.Fatal("grid kNN disagrees with brute force")
	}
}

func TestAD3IsGeometricK3(t *testing.T) {
	a := AD3(300, 5)
	g := Geometric(300, 3, 5)
	// Same structure, different name.
	if a.NumEdges() != g.NumEdges() {
		t.Fatalf("AD3 edges %d != geometric k=3 edges %d", a.NumEdges(), g.NumEdges())
	}
}

func TestGeoFlatSparse(t *testing.T) {
	g := GeoFlat(2000, DefaultGeoFlatParams(), 13)
	if g.NumEdges() == 0 {
		t.Fatal("flat geographic graph has no edges")
	}
	if avg := g.AvgDegree(); avg > 64 {
		t.Fatalf("flat geographic graph too dense: avg degree %.1f", avg)
	}
}

func TestGeoHierConnectedAndSized(t *testing.T) {
	for _, n := range []int{1, 10, 500, 4096} {
		g := GeoHier(n, DefaultGeoHierParams(), 17)
		if g.NumVertices() != n {
			t.Fatalf("n=%d: got %d vertices", n, g.NumVertices())
		}
		if n > 0 && !graph.IsConnected(g) {
			t.Fatalf("n=%d: hierarchical geographic graph disconnected", n)
		}
	}
}

func TestSimpleShapes(t *testing.T) {
	if g := Chain(5); g.NumEdges() != 4 || graph.PseudoDiameter(g, 0) != 4 {
		t.Fatal("chain shape wrong")
	}
	if g := Cycle(6); g.NumEdges() != 6 || g.MaxDegree() != 2 {
		t.Fatal("cycle shape wrong")
	}
	if g := Cycle(2); g.NumEdges() != 1 {
		t.Fatal("2-cycle should degenerate to one edge")
	}
	if g := Star(9); g.NumEdges() != 8 || g.Degree(0) != 8 {
		t.Fatal("star shape wrong")
	}
	if g := Complete(6); g.NumEdges() != 15 {
		t.Fatal("complete graph shape wrong")
	}
	if g := BinaryTree(7); g.NumEdges() != 6 || g.Degree(0) != 2 || g.Degree(1) != 3 {
		t.Fatal("binary tree shape wrong")
	}
	if g := Caterpillar(10); !graph.IsConnected(g) || g.NumEdges() != 9 {
		t.Fatal("caterpillar shape wrong")
	}
}

func TestNegativePanics(t *testing.T) {
	cases := []func(){
		func() { Chain(-1) },
		func() { Star(-1) },
		func() { Torus2D(-1, 2) },
		func() { Mesh2D(-1, 2, 0.5, 0) },
		func() { Random(-1, 0, 0) },
		func() { Geometric(10, 0, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGeoFlatDegreeStableAcrossSizes(t *testing.T) {
	// The scale-aware default cutoff keeps the average degree roughly
	// constant as n grows (a sparse WAN stays sparse).
	for _, n := range []int{2000, 16384, 65536} {
		g := GeoFlat(n, DefaultGeoFlatParams(), 13)
		if avg := g.AvgDegree(); avg < 2 || avg > 20 {
			t.Fatalf("n=%d: avg degree %.2f outside the sparse band", n, avg)
		}
	}
}

// BenchmarkRandom times the paper's Fig. 3 density at the benchmark's
// size, G(2^20, 1.5·2^20): the draw, its sort and top-up, and the CSR
// build.
func BenchmarkRandom(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSink = Random(1<<20, 3<<19, uint64(i)+1)
	}
}

// benchSink keeps the benchmarked graphs live.
var benchSink *graph.Graph
