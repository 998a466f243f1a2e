package spanuf

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"spantree/internal/fault"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
	"spantree/internal/spanseq"
	"spantree/internal/spansv"
	"spantree/internal/verify"
)

// fig4Families returns scaled-down instances of all ten Fig. 4 graph
// families — the same constructors the harness uses at paper scale.
func fig4Families() map[string]*graph.Graph {
	const n, s = 1024, 32
	return map[string]*graph.Graph{
		"torus-rowmajor": gen.Torus2D(s, s),
		"torus-random":   graph.RandomRelabel(gen.Torus2D(s, s), 0xA5A5),
		"random-nlogn":   gen.Random(n, n*10, 11),
		"2d60":           gen.Mesh2D(s, s, 0.60, 12),
		"3d40":           gen.Mesh3D(10, 10, 10, 0.40, 13),
		"ad3":            gen.AD3(n, 14),
		"geo-flat":       gen.GeoFlat(n, gen.DefaultGeoFlatParams(), 15),
		"geo-hier":       gen.GeoHier(n, gen.DefaultGeoHierParams(), 16),
		"chain-seq":      gen.Chain(n),
		"chain-random":   graph.RandomRelabel(gen.Chain(n), 0x5A5A),
	}
}

func countRoots(parent []graph.VID) int {
	roots := 0
	for _, p := range parent {
		if p == graph.None {
			roots++
		}
	}
	return roots
}

// TestMatchesSequentialUnionFind is the main property test: on every
// Fig. 4 family and p ∈ {1, 4, 8}, the sweep's output is a valid
// spanning forest with exactly the component count the sequential
// union-find reference finds.
func TestMatchesSequentialUnionFind(t *testing.T) {
	for name, g := range fig4Families() {
		seq := spanseq.UnionFind(g, nil)
		wantRoots := countRoots(seq)
		if wantRoots != graph.NumComponents(g) {
			t.Fatalf("%s: sequential reference disagrees with NumComponents", name)
		}
		for _, p := range []int{1, 4, 8} {
			parent, st, err := SpanningForest(g, Options{NumProcs: p})
			if err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			if got := countRoots(parent); got != wantRoots {
				t.Fatalf("%s p=%d: %d roots, sequential union-find %d", name, p, got, wantRoots)
			}
			if st.TreeEdges != g.NumVertices()-wantRoots {
				t.Fatalf("%s p=%d: TreeEdges = %d, want n-comps = %d",
					name, p, st.TreeEdges, g.NumVertices()-wantRoots)
			}
			if g.NumEdges() > 0 && st.Finds == 0 {
				t.Fatalf("%s p=%d: no finds recorded", name, p)
			}
		}
	}
}

// TestDegenerateShapes covers the edges the family constructors skip.
func TestDegenerateShapes(t *testing.T) {
	for _, g := range []*graph.Graph{
		gen.Chain(0), gen.Chain(1), gen.Chain(2),
		gen.Star(64), gen.Complete(16),
		graph.Union(gen.Chain(10), gen.Star(8), gen.Cycle(7), gen.Random(30, 45, 5)),
	} {
		for _, p := range []int{1, 3} {
			parent, st, err := SpanningForest(g, Options{NumProcs: p})
			if err != nil {
				t.Fatalf("%v p=%d: %v", g, p, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%v p=%d: %v", g, p, err)
			}
			if want := g.NumVertices() - graph.NumComponents(g); st.TreeEdges != want {
				t.Fatalf("%v p=%d: TreeEdges = %d, want %d", g, p, st.TreeEdges, want)
			}
		}
	}
}

// TestP1Deterministic: with one processor the sweep visits arcs in
// vertex order with no races, so repeated runs are byte-identical.
func TestP1Deterministic(t *testing.T) {
	g := gen.GeoHier(800, gen.DefaultGeoHierParams(), 21)
	first, firstStats, err := SpanningForest(g, Options{NumProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		parent, st, err := SpanningForest(g, Options{NumProcs: 1})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		for v := range first {
			if parent[v] != first[v] {
				t.Fatalf("run %d: parent[%d] = %d, first run %d", run, v, parent[v], first[v])
			}
		}
		if st != firstStats {
			t.Fatalf("run %d: stats %+v, first run %+v", run, st, firstStats)
		}
	}
	if firstStats.HooksLost != 0 {
		t.Fatalf("p=1 lost %d hook elections with no competitors", firstStats.HooksLost)
	}
}

// TestHookingRuleModel is a quick.Check model of the smaller-to-larger
// hooking rule: drive the hooker over a random arc schedule and check
// the lock-free safety invariant directly — every non-root's parent is
// strictly larger than the vertex (so parent walks terminate), hook
// wins equal tree edges, and the final partition matches a trivial
// reference union-find.
func TestHookingRuleModel(t *testing.T) {
	model := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(63)
		m := rng.Intn(4 * n)
		g := gen.Random(n, m, uint64(seed)+1)

		// The arc schedule: every (v,w) with w > v, shuffled, some twice
		// (re-processing an arc must be harmless: its roots are equal).
		type arc struct{ v, w graph.VID }
		var arcs []arc
		for v := 0; v < n; v++ {
			for _, w := range g.Neighbors(graph.VID(v)) {
				if w > graph.VID(v) {
					arcs = append(arcs, arc{graph.VID(v), w})
				}
			}
		}
		arcs = append(arcs, arcs[:len(arcs)/3]...)
		rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })

		uf := make([]int32, n)
		hooks := make([]int64, n)
		for i := range uf {
			uf[i] = int32(i)
			hooks[i] = spansv.NoArc
		}
		var ct counts
		h := hooker{uf: uf, hooks: hooks, ct: &ct}
		won := 0
		for _, a := range arcs {
			if h.hook(a.v, a.w) {
				won++
			}
		}

		// The safety invariant: non-roots point strictly upward (so parent
		// walks terminate), and a vertex is a union-find root exactly when
		// its hook slot was never won — a root's parent is only ever
		// written by the hook that claims it.
		for i := 0; i < n; i++ {
			if uf[i] != int32(i) && uf[i] <= int32(i) {
				t.Logf("seed %d: uf[%d] = %d violates the strictly-larger rule", seed, i, uf[i])
				return false
			}
			if (uf[i] == int32(i)) != (hooks[i] == spansv.NoArc) {
				t.Logf("seed %d: uf[%d] = %d but hooks[%d] = %d", seed, i, uf[i], i, hooks[i])
				return false
			}
		}
		comps := graph.NumComponents(g)
		if won != n-comps {
			t.Logf("seed %d: %d hook wins, want n-comps = %d", seed, won, n-comps)
			return false
		}
		// Hook wins and roots partition the vertices.
		roots := 0
		for i := range hooks {
			if hooks[i] == spansv.NoArc {
				roots++
			}
		}
		if roots != comps {
			t.Logf("seed %d: %d unhooked slots, want %d components", seed, roots, comps)
			return false
		}
		return true
	}
	if err := quick.Check(model, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestObsCounters: the per-worker tallies flushed into the recorder
// must reconcile with the run's Stats, and hook wins with tree edges.
func TestObsCounters(t *testing.T) {
	g := gen.RandomConnected(500, 2000, 41)
	rec := obs.New(4)
	parent, st, err := SpanningForest(g, Options{NumProcs: 4, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatal(err)
	}
	if got := rec.Total(obs.HooksWon); got != int64(st.TreeEdges) {
		t.Errorf("HooksWon total = %d, TreeEdges = %d", got, st.TreeEdges)
	}
	if got := rec.Total(obs.HooksLost); got != st.HooksLost {
		t.Errorf("HooksLost total = %d, stats %d", got, st.HooksLost)
	}
	if got := rec.Total(obs.UFFinds); got != st.Finds {
		t.Errorf("UFFinds total = %d, stats %d", got, st.Finds)
	}
	if got := rec.Total(obs.CompressionWrites); got != st.CompressionWrites {
		t.Errorf("CompressionWrites total = %d, stats %d", got, st.CompressionWrites)
	}
	if rec.Total(obs.EdgesScanned) != 2*int64(g.NumEdges()) {
		t.Errorf("EdgesScanned = %d, want 2m = %d", rec.Total(obs.EdgesScanned), 2*g.NumEdges())
	}
}

// TestModeledDeterministic: with a cost model attached ForDynamic runs
// static blocks, so modeled counter totals — including the new CAS and
// pointer-chase classes — are reproducible run to run.
func TestModeledDeterministic(t *testing.T) {
	g := gen.GeoFlat(900, gen.DefaultGeoFlatParams(), 51)
	run := func() smpmodel.Counters {
		m := smpmodel.New(4)
		if _, _, err := SpanningForest(g, Options{NumProcs: 4, Model: m}); err != nil {
			t.Fatal(err)
		}
		return m.Total()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("modeled totals differ across runs:\n%+v\n%+v", a, b)
	}
	if a.CASOps == 0 {
		t.Error("no CAS operations charged")
	}
	if a.PointerChases == 0 {
		t.Error("no pointer chases charged")
	}
}

// TestCancelPreTripped: a flag tripped before the run starts yields the
// typed error without output.
func TestCancelPreTripped(t *testing.T) {
	g := gen.Torus2D(16, 16)
	flag := &fault.Flag{}
	flag.Trip(fault.CauseCanceled)
	_, _, err := SpanningForest(g, Options{NumProcs: 2, Cancel: flag})
	if !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRejectsBadProcs(t *testing.T) {
	if _, _, err := SpanningForest(gen.Chain(4), Options{}); err == nil {
		t.Fatal("NumProcs = 0 accepted")
	}
}
