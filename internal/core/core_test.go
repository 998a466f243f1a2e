package core

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/smpmodel"
	"spantree/internal/verify"
	"spantree/internal/xrand"
)

// drivers runs both execution modes under the same options.
func drivers() map[string]func(*graph.Graph, Options) ([]graph.VID, Stats, error) {
	return map[string]func(*graph.Graph, Options) ([]graph.VID, Stats, error){
		"concurrent": SpanningForest,
		"lockstep":   LockstepForest,
	}
}

// newTeam builds the traversal of g the way a one-shot run does, for
// tests that drive its steps directly.
func newTeam(g *graph.Graph, o Options) (*traversal, error) {
	return newTraversal(g, o.withDefaults(), 0)
}

func shapes() []*graph.Graph {
	return []*graph.Graph{
		gen.Chain(0), gen.Chain(1), gen.Chain(2), gen.Chain(100),
		gen.Star(64), gen.Cycle(40), gen.Complete(16),
		gen.Torus2D(8, 8), gen.Random(200, 300, 1),
		gen.RandomConnected(150, 250, 2),
		gen.AD3(120, 3), gen.GeoHier(200, gen.DefaultGeoHierParams(), 4),
		graph.Union(gen.Chain(10), gen.Star(8), gen.Cycle(7), gen.Random(30, 45, 5)),
		graph.RandomRelabel(gen.Torus2D(8, 8), 6),
		gen.BinaryTree(63), gen.Caterpillar(41),
		// Edgeless: every drained stub seed has its offset at the end of
		// the empty adjacency arena, which the drain loop's touch skips.
		gen.Random(8, 0, 1),
	}
}

func TestBothDriversAllShapes(t *testing.T) {
	for name, run := range drivers() {
		for _, g := range shapes() {
			for _, p := range []int{1, 2, 4, 7} {
				parent, st, err := run(g, Options{NumProcs: p, Seed: 42})
				if err != nil {
					t.Fatalf("%s %v p=%d: %v", name, g, p, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%s %v p=%d: %v", name, g, p, err)
				}
				// One root per component, found via quiescence seeding.
				wantComps := graph.NumComponents(g)
				roots := 0
				for _, pv := range parent {
					if pv == graph.None {
						roots++
					}
				}
				if roots != wantComps {
					t.Fatalf("%s %v p=%d: %d roots, want %d", name, g, p, roots, wantComps)
				}
				if g.NumVertices() > 0 && st.StubSize == 0 {
					t.Fatalf("%s %v: empty stub", name, g)
				}
				// A worker panic degrades to the sequential BFS, whose
				// forest would pass the checks above.
				if st.Panic != nil {
					t.Fatalf("%s %v p=%d: worker panicked: %v", name, g, p, st.Panic)
				}
			}
		}
	}
}

// TestTouchEndOfArena pins the drain loop's touch guard: a degree-0
// vertex at the end of a CSR32 arena has its offset one past the end of
// Adj. The edgeless shape covers it end to end in
// TestBothDriversAllShapes; here, on a non-empty arena, only the
// isolated last vertex lies past the end.
func TestTouchEndOfArena(t *testing.T) {
	tr, err := newTeam(graph.Union(gen.Cycle(5), gen.Chain(1)), Options{NumProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.touch([]int32{0, 5}); got != tr.cg.Adj[0] {
		t.Fatalf("touch = %d, want the first adjacency slot %d", got, tr.cg.Adj[0])
	}
}

func TestProperty(t *testing.T) {
	for name, run := range drivers() {
		f := func(seed uint64, nRaw, mRaw uint16, pRaw uint8) bool {
			n := int(nRaw%250) + 1
			m := int(mRaw % 500)
			p := int(pRaw%6) + 1
			g := gen.Random(n, m, seed)
			parent, _, err := run(g, Options{NumProcs: p, Seed: seed ^ 0xBEEF})
			return err == nil && verify.Forest(g, parent) == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestOptionCombinations(t *testing.T) {
	combos := []Options{
		{NoSteal: true},
		{NoStub: true},
		{Deg2Eliminate: true},
		{FallbackThreshold: 1},
		{FallbackThreshold: 2, Deg2Eliminate: true},
		{NoSteal: true, NoStub: true},
		{StubSteps: 1},
		{StubSteps: 1000},
	}
	for name, run := range drivers() {
		for _, g := range shapes() {
			for i, base := range combos {
				opt := base
				opt.NumProcs = 3
				opt.Seed = uint64(i) + 9
				parent, _, err := run(g, opt)
				if err != nil {
					t.Fatalf("%s %v combo %d: %v", name, g, i, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%s %v combo %d: %v", name, g, i, err)
				}
			}
		}
	}
}

func TestLockstepDeterminism(t *testing.T) {
	g := gen.Random(500, 800, 7)
	run := func() ([]graph.VID, Stats, *smpmodel.Model) {
		model := smpmodel.New(4)
		parent, st, err := LockstepForest(g, Options{NumProcs: 4, Seed: 11, Model: model})
		if err != nil {
			t.Fatal(err)
		}
		return parent, st, model
	}
	p1, s1, m1 := run()
	p2, s2, m2 := run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("parent[%d] differs between identical lockstep runs", i)
		}
	}
	if s1.Steals != s2.Steals || s1.LockstepRounds != s2.LockstepRounds {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if m1.Time(smpmodel.E4500()) != m2.Time(smpmodel.E4500()) {
		t.Fatal("modeled time differs between identical lockstep runs")
	}
	for tid := 0; tid < 4; tid++ {
		if m1.Proc(tid) != m2.Proc(tid) {
			t.Fatalf("proc %d counters differ", tid)
		}
	}
}

func TestStatsInvariants(t *testing.T) {
	g := gen.RandomConnected(2000, 3000, 3)
	for name, run := range drivers() {
		parent, st, err := run(g, Options{NumProcs: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Forest(g, parent); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var processed int64
		for _, v := range st.VerticesPerProc {
			processed += v
		}
		// Every processed vertex was claimed first, and a connected run
		// terminates once all n are claimed, so processed <= n.
		if processed > int64(g.NumVertices()) {
			t.Fatalf("%s: processed %d > n", name, processed)
		}
		if st.StolenVertices < st.Steals {
			t.Fatalf("%s: %d steals moved %d vertices", name, st.Steals, st.StolenVertices)
		}
		if st.CursorRoots != 0 {
			t.Fatalf("%s: %d cursor roots on a connected graph", name, st.CursorRoots)
		}
		if st.MaxLoadImbalance() < 1.0 {
			t.Fatalf("%s: imbalance %f < 1", name, st.MaxLoadImbalance())
		}
	}
}

func TestCursorRootsOnDisconnected(t *testing.T) {
	g := graph.Union(gen.Chain(50), gen.Chain(50), gen.Chain(50), gen.Star(30))
	for name, run := range drivers() {
		parent, st, err := run(g, Options{NumProcs: 3, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Forest(g, parent); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The stub covers one component; the other three come from the
		// quiescence cursor.
		if st.CursorRoots != 3 {
			t.Fatalf("%s: cursor roots = %d, want 3", name, st.CursorRoots)
		}
	}
}

// TestFallbackTriggersOnChain drives both drivers into the SV fallback
// on the degenerate chain. The lockstep driver is deterministic. Left to
// itself, the concurrent driver triggers only if enough idle workers
// happen to sleep at once before the chain's two frontier ends run out,
// so the test hook holds every worker that still has frontier after its
// first drain until the fallback fires. Only empty-handed workers keep
// cycling through the idle protocol, and they reach the threshold
// whatever the scheduler does. The concurrent run is SpanningForest's
// one-run workspace, opened up so the hook can reach its queues.
func TestFallbackTriggersOnChain(t *testing.T) {
	g := gen.Chain(1 << 14)
	opt := Options{NumProcs: 6, Seed: 3, FallbackThreshold: 3}
	check := func(name string, parent []graph.VID, st Stats, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := verify.Forest(g, parent); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !st.FallbackTriggered {
			t.Fatalf("%s: fallback did not trigger on the chain", name)
		}
		if st.SVStats.Grafts == 0 {
			t.Fatalf("%s: fallback ran but grafted nothing", name)
		}
	}
	parent, st, err := LockstepForest(g, opt)
	check("lockstep", parent, st, err)

	w, err := newWorkspace(g, opt.withDefaults(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	tr := w.t
	calls := make([]int, opt.NumProcs) // calls[tid] is touched only by worker tid
	// The deadline turns a broken trigger into a test failure, not a hang.
	deadline := time.Now().Add(10 * time.Second)
	tr.o.testHook = func(tid int) {
		if calls[tid]++; calls[tid] == 1 {
			return
		}
		for tr.queues[tid].Len() > 0 && !tr.abort.Load() && time.Now().Before(deadline) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	parent, pst, err := w.run(opt.Seed, true)
	check("concurrent", parent, *pst, err)
}

func TestFallbackNeverTriggersOnDenseGraph(t *testing.T) {
	// The paper: "in practical terms this mechanism will almost never be
	// triggered"; a dense random graph keeps everyone busy.
	g := gen.RandomConnected(5000, 15000, 4)
	for name, run := range drivers() {
		_, st, err := run(g, Options{NumProcs: 4, Seed: 4, FallbackThreshold: 4})
		if err != nil {
			t.Fatal(err)
		}
		if st.FallbackTriggered {
			t.Fatalf("%s: spurious fallback on a dense graph", name)
		}
	}
}

func TestDeg2Elimination(t *testing.T) {
	for name, run := range drivers() {
		for _, g := range []*graph.Graph{gen.Chain(500), gen.Cycle(400), gen.Caterpillar(301)} {
			parent, st, err := run(g, Options{NumProcs: 3, Seed: 8, Deg2Eliminate: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
			if st.Deg2Eliminated == 0 {
				t.Fatalf("%s %v: elimination removed nothing", name, g)
			}
		}
	}
}

func TestNoStealLoadImbalance(t *testing.T) {
	// Without stealing, the stub walk's clustered seeds leave most work
	// on few processors (the paper's Fig. 2 scenario): imbalance must be
	// clearly worse than with stealing. Lockstep mode gives the
	// deterministic comparison.
	g := gen.Torus2D(64, 64)
	_, with, err := LockstepForest(g, Options{NumProcs: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, without, err := LockstepForest(g, Options{NumProcs: 8, Seed: 5, NoSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.MaxLoadImbalance() < with.MaxLoadImbalance() {
		t.Fatalf("stealing imbalance %.2f, no-steal %.2f: stealing should balance",
			with.MaxLoadImbalance(), without.MaxLoadImbalance())
	}
	if with.Steals == 0 && without.MaxLoadImbalance() > 2 {
		t.Log("note: no steals were needed despite imbalance headroom")
	}
}

func TestSpanRecorded(t *testing.T) {
	// The chain's dependency span must scale with n; the star's must not.
	chainModel := smpmodel.New(4)
	if _, _, err := LockstepForest(gen.Chain(2000), Options{NumProcs: 4, Seed: 1, Model: chainModel}); err != nil {
		t.Fatal(err)
	}
	starModel := smpmodel.New(4)
	if _, _, err := LockstepForest(gen.Star(2000), Options{NumProcs: 4, Seed: 1, Model: starModel}); err != nil {
		t.Fatal(err)
	}
	if chainModel.SpanNC() < 1000 {
		t.Fatalf("chain span %d too small", chainModel.SpanNC())
	}
	if starModel.SpanNC() >= chainModel.SpanNC() {
		t.Fatalf("star span %d >= chain span %d", starModel.SpanNC(), chainModel.SpanNC())
	}
}

func TestRejectsBadOptions(t *testing.T) {
	if _, _, err := SpanningForest(gen.Chain(3), Options{NumProcs: 0}); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, _, err := LockstepForest(gen.Chain(3), Options{NumProcs: -1}); err == nil {
		t.Fatal("negative p accepted")
	}
}

// TestUnrepresentableGraphReturnsError: a graph whose offsets do not
// fit the uint32 mirror the traversal reads gets CompactOf's error,
// wrapped, from both drivers and the Workspace — never a panic.
func TestUnrepresentableGraphReturnsError(t *testing.T) {
	g := &graph.Graph{Offs: []int64{0, 1 << 33}}
	_, want := graph.CompactOf(g)
	if want == nil {
		t.Fatal("CompactOf accepted an offset past 2^32")
	}
	check := func(what string, err error) {
		t.Helper()
		if err == nil || errors.Unwrap(err) == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Fatalf("%s: err = %v, want a wrapped %q", what, err, want)
		}
	}
	for name, run := range drivers() {
		_, _, err := run(g, Options{NumProcs: 2})
		check(name, err)
	}
	_, err := NewWorkspace(g, Options{NumProcs: 2})
	check("NewWorkspace", err)
}

// TestCompactLayoutOnTinyGraphs: every tiny shape, the empty and
// one-vertex graphs included, fits the uint32 mirror the traversal
// reads, and both drivers run on it to a valid forest.
func TestCompactLayoutOnTinyGraphs(t *testing.T) {
	for name, run := range drivers() {
		for _, g := range shapes() {
			if _, err := graph.CompactOf(g); err != nil {
				t.Fatalf("%v: CompactOf: %v", g, err)
			}
			parent, _, err := run(g, Options{NumProcs: 2, Seed: 3})
			if err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
		}
	}
}

func TestFailedClaimsObservedUnderContention(t *testing.T) {
	// On a dense graph with many processors the paper observed a handful
	// of multiply-colored vertices; here those surface as failed claim
	// CASes. We only assert the counter is consistent (>= 0 and not
	// absurd), since contention depends on scheduling.
	g := gen.Complete(200)
	_, st, err := SpanningForest(g, Options{NumProcs: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.FailedClaims < 0 || st.FailedClaims > int64(g.NumVertices())*8 {
		t.Fatalf("implausible FailedClaims %d", st.FailedClaims)
	}
}

// TestStubWalkClaimsUnclaimedVertices pins the stub walk's claim check
// against the fused array's unclaimed sentinel: the walk's first step
// always lands on a vertex nobody has claimed, so every stub of a graph
// without isolated vertices holds at least two vertices, each claimed
// exactly once.
func TestStubWalkClaimsUnclaimedVertices(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Complete(16), gen.Torus2D(8, 8)} {
		tr, err := newTeam(g, Options{NumProcs: 4})
		if err != nil {
			t.Fatal(err)
		}
		stub := stubSpanningTree(tr, xrand.New(9), nil, nil)
		if len(stub) < 2 || tr.visited.Load() != int64(len(stub)) {
			t.Fatalf("%v: stub %v with %d claims, want >= 2 vertices each claimed once", g, stub, tr.visited.Load())
		}
	}
}
