package spantree

import (
	"fmt"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/smpmodel"
)

// testGraphs returns a matrix of small instances covering every
// generator family and several adversarial shapes.
func testGraphs(tb testing.TB) []*Graph {
	tb.Helper()
	gs := []*Graph{
		gen.Torus2D(8, 8),
		gen.Torus2D(1, 1),
		gen.Grid2D(5, 13),
		gen.Mesh2D(12, 12, 0.60, 7),
		gen.Mesh3D(5, 5, 5, 0.40, 7),
		gen.Random(200, 300, 1),
		gen.Random(100, 0, 1), // edgeless
		gen.RandomConnected(257, 400, 2),
		gen.Geometric(150, 4, 3),
		gen.AD3(120, 4),
		gen.GeoFlat(300, gen.DefaultGeoFlatParams(), 5),
		gen.GeoHier(300, gen.DefaultGeoHierParams(), 6),
		gen.Chain(100),
		gen.Chain(1),
		gen.Chain(0),
		gen.Chain(2),
		gen.Star(64),
		gen.Cycle(50),
		gen.Complete(20),
		gen.BinaryTree(63),
		gen.Caterpillar(41),
		graph.Union(gen.Chain(10), gen.Star(5), gen.Cycle(7), gen.Random(20, 30, 9)),
		graph.RandomRelabel(gen.Torus2D(8, 8), 11),
		graph.RandomRelabel(gen.Chain(100), 12),
	}
	for _, g := range gs {
		if err := g.Validate(); err != nil {
			tb.Fatalf("test input %v invalid: %v", g, err)
		}
	}
	return gs
}

// forestRow is one algorithm of TestAllAlgorithmsProduceValidForests
// and FuzzForests: it runs on p processors with the given seed and
// reports the forest with its root and tree-edge counts.
type forestRow struct {
	name       string
	sequential bool
	find       func(g *Graph, p int, seed uint64) (parent []VID, roots, treeEdges int, err error)
}

// forestRows is every Algorithm plus random mating, the one forest
// algorithm the package exports outside Find.
func forestRows() []forestRow {
	var rows []forestRow
	for _, alg := range Algorithms() {
		rows = append(rows, forestRow{
			name:       alg.String(),
			sequential: alg == AlgSequentialBFS || alg == AlgSequentialDFS || alg == AlgSequentialUF,
			find: func(g *Graph, p int, seed uint64) ([]VID, int, int, error) {
				res, err := Find(g, Options{Algorithm: alg, NumProcs: p, Seed: seed, Verify: true})
				if err != nil {
					return nil, 0, 0, err
				}
				return res.Parent, res.Roots, res.TreeEdges, nil
			},
		})
	}
	return append(rows, forestRow{name: "randmate", find: func(g *Graph, p int, seed uint64) ([]VID, int, int, error) {
		res, err := FindRandomMating(g, p, seed)
		if err != nil {
			return nil, 0, 0, err
		}
		return res.Parent, res.Roots, res.TreeEdges, nil
	}})
}

// checkForestRow runs row on g and holds its forest to the component
// oracle: it verifies, it has one root per component, and it has
// n - roots tree edges.
func checkForestRow(t *testing.T, g *Graph, row forestRow, p int, seed uint64) {
	t.Helper()
	name := fmt.Sprintf("%v/%s/p=%d", g, row.name, p)
	parent, roots, treeEdges, err := row.find(g, p, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := Verify(g, parent); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantRoots := graph.NumComponents(g)
	if roots != wantRoots {
		t.Errorf("%s: got %d roots, want %d components", name, roots, wantRoots)
	}
	if treeEdges != g.NumVertices()-wantRoots {
		t.Errorf("%s: got %d tree edges, want %d", name, treeEdges, g.NumVertices()-wantRoots)
	}
}

func TestAllAlgorithmsProduceValidForests(t *testing.T) {
	for _, g := range testGraphs(t) {
		for _, row := range forestRows() {
			for _, p := range []int{1, 2, 4, 7} {
				if row.sequential && p != 1 {
					continue
				}
				checkForestRow(t, g, row, p, 42)
			}
		}
	}
}

// FuzzForests decodes bytes into a graph as FuzzFind (internal/core)
// does, with n < 64, 1-4 processors and endpoint pairs taken mod n, and
// holds every row of forestRows to the component oracle on it. `go
// test` runs the seed corpus; `go test -run '^$' -fuzz FuzzForests .`
// explores further.
func FuzzForests(f *testing.F) {
	// FuzzFind's eight seed shapes: edgeless, an isolated last vertex,
	// two triangles, a star, a path, and the pendant shapes.
	f.Add(uint8(5), uint8(1), uint64(1), []byte{})
	f.Add(uint8(4), uint8(2), uint64(2), []byte{0, 1, 1, 2})
	f.Add(uint8(6), uint8(3), uint64(3), []byte{0, 1, 1, 2, 2, 0, 3, 4, 4, 5, 5, 3})
	f.Add(uint8(9), uint8(4), uint64(4), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8})
	f.Add(uint8(10), uint8(2), uint64(5), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9})
	f.Add(uint8(8), uint8(2), uint64(6), []byte{0, 1, 1, 2, 2, 0, 0, 3, 3, 4, 1, 5, 5, 6, 5, 7})
	f.Add(uint8(12), uint8(3), uint64(7), []byte{0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11})
	f.Add(uint8(9), uint8(4), uint64(8), []byte{0, 1, 1, 2, 2, 3, 3, 0, 0, 4, 5, 6, 6, 7, 6, 8})
	f.Fuzz(func(t *testing.T, nb, pb uint8, seed uint64, edges []byte) {
		n, p := int(nb%64), 1+int(pb%4)
		b := graph.NewBuilder(n)
		for i := 0; n > 0 && i+1 < len(edges); i += 2 {
			b.AddEdge(VID(int(edges[i])%n), VID(int(edges[i+1])%n))
		}
		g := b.Build()
		for _, row := range forestRows() {
			checkForestRow(t, g, row, p, seed)
		}
	})
}

func TestWorkStealingWithDeg2AndFallback(t *testing.T) {
	for _, g := range testGraphs(t) {
		for _, opt := range []Options{
			{Algorithm: AlgWorkStealing, NumProcs: 4, Deg2Eliminate: true, Seed: 1, Verify: true},
			{Algorithm: AlgWorkStealing, NumProcs: 4, FallbackThreshold: 2, Seed: 1, Verify: true},
			{Algorithm: AlgWorkStealing, NumProcs: 3, Deg2Eliminate: true, FallbackThreshold: 1, Seed: 9, Verify: true},
		} {
			res, err := Find(g, opt)
			if err != nil {
				t.Fatalf("%v deg2=%v fb=%d: %v", g, opt.Deg2Eliminate, opt.FallbackThreshold, err)
			}
			if res.Roots != graph.NumComponents(g) {
				t.Errorf("%v: got %d roots, want %d", g, res.Roots, graph.NumComponents(g))
			}
		}
	}
}

func TestFindRejectsBadInput(t *testing.T) {
	if _, err := Find(nil, Options{}); err == nil {
		t.Error("Find(nil) should fail")
	}
	g := gen.Chain(4)
	if _, err := Find(g, Options{NumProcs: -1}); err == nil {
		t.Error("Find with negative NumProcs should fail")
	}
	if _, err := Find(g, Options{Algorithm: Algorithm(99)}); err == nil {
		t.Error("Find with unknown algorithm should fail")
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, a := range Algorithms() {
		got, err := ParseAlgorithm(a.String())
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", a.String(), err)
		}
		if got != a {
			t.Errorf("round trip %v != %v", got, a)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("ParseAlgorithm(nope) should fail")
	}
}

func TestConnectedComponentsAPI(t *testing.T) {
	g := graph.Union(gen.Chain(10), gen.Cycle(8), gen.Star(6))
	labels, count, err := ConnectedComponents(g, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("got %d components, want 3", count)
	}
	ref, refCount := graph.Components(g)
	if refCount != count {
		t.Fatalf("reference count %d != %d", refCount, count)
	}
	// Labelings must induce the same partition.
	seen := map[VID]VID{}
	for v := range labels {
		if ref[v] < 0 {
			t.Fatalf("reference label missing for %d", v)
		}
		if prev, ok := seen[labels[v]]; ok {
			if prev != ref[v] {
				t.Fatalf("vertex %d: label %d maps to both ref %d and %d", v, labels[v], prev, ref[v])
			}
		} else {
			seen[labels[v]] = ref[v]
		}
	}
}

func TestFindWithModelChargesEveryAlgorithm(t *testing.T) {
	g := gen.RandomConnected(400, 600, 5)
	seqModel := smpmodel.New(1)
	if _, err := Find(g, Options{Algorithm: AlgSequentialBFS, Model: seqModel}); err != nil {
		t.Fatal(err)
	}
	seqNC := seqModel.Total().NonContig
	if seqNC == 0 {
		t.Fatal("sequential run charged nothing")
	}
	for _, alg := range Algorithms() {
		model := smpmodel.New(4)
		res, err := Find(g, Options{Algorithm: alg, NumProcs: 4, Seed: 2, Model: model, Verify: true})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Elapsed <= 0 {
			t.Fatalf("%v: no elapsed time", alg)
		}
		if model.Total().NonContig == 0 {
			t.Fatalf("%v: no cost charged", alg)
		}
		if model.Time(smpmodel.E4500()) <= 0 {
			t.Fatalf("%v: no modeled time", alg)
		}
	}
}

func TestResultStatsPopulated(t *testing.T) {
	g := gen.RandomConnected(300, 500, 6)
	cases := map[Algorithm]func(*Result) bool{
		AlgWorkStealing:     func(r *Result) bool { return r.WorkStealing != nil },
		AlgSV:               func(r *Result) bool { return r.SV != nil && r.SV.Grafts == 299 },
		AlgSVLocks:          func(r *Result) bool { return r.SV != nil },
		AlgHCS:              func(r *Result) bool { return r.HCS != nil },
		AlgAwerbuchShiloach: func(r *Result) bool { return r.AS != nil },
		AlgLevelBFS:         func(r *Result) bool { return r.LevelBFS != nil && r.LevelBFS.Levels > 0 },
	}
	for alg, check := range cases {
		res, err := Find(g, Options{Algorithm: alg, NumProcs: 3, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if !check(res) {
			t.Fatalf("%v: stats not populated", alg)
		}
	}
}
