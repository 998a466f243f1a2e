package spansv

import (
	"testing"
	"testing/quick"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/smpmodel"
	"spantree/internal/verify"
)

// outcome is the part of a run every member reports: the forest, the
// iterations (random mating's rounds) and the tree edges grafted.
type outcome struct {
	parent     []graph.VID
	iterations int
	grafts     int
}

// member is one algorithm of the family, run from singleton components.
type member struct {
	name string
	run  func(g *graph.Graph, opt Options) (outcome, error)
}

func members() []member {
	sv := func(locks bool) func(*graph.Graph, Options) (outcome, error) {
		return func(g *graph.Graph, opt Options) (outcome, error) {
			parent, st, err := SpanningForest(g, opt, locks)
			return outcome{parent, st.Iterations, st.Grafts}, err
		}
	}
	return []member{
		{"sv", sv(false)},
		{"svlocks", sv(true)},
		{"hcs", func(g *graph.Graph, opt Options) (outcome, error) {
			parent, st, err := HCS(g, opt)
			return outcome{parent, st.Iterations, st.Grafts}, err
		}},
		{"as", func(g *graph.Graph, opt Options) (outcome, error) {
			parent, st, err := AwerbuchShiloach(g, opt)
			return outcome{parent, st.Iterations, st.ConditionalHooks + st.UnconditionalHooks}, err
		}},
		{"randmate", func(g *graph.Graph, opt Options) (outcome, error) {
			parent, st, err := RandomMating(g, opt, 7)
			return outcome{parent, st.Rounds, st.Hooks}, err
		}},
	}
}

func TestSpanningForestShapes(t *testing.T) {
	shapes := []*graph.Graph{
		gen.Chain(0), gen.Chain(1), gen.Chain(2), gen.Chain(64),
		gen.Star(40), gen.Cycle(33), gen.Complete(15),
		gen.Torus2D(7, 7), gen.Random(150, 220, 1),
		graph.Union(gen.Chain(8), gen.Star(6), gen.Cycle(5)),
		graph.RandomRelabel(gen.Chain(64), 9),
	}
	for _, m := range members() {
		t.Run(m.name, func(t *testing.T) {
			for _, g := range shapes {
				for _, p := range []int{1, 2, 4, 5, 7} {
					out, err := m.run(g, Options{NumProcs: p})
					if err != nil {
						t.Fatalf("%v p=%d: %v", g, p, err)
					}
					if err := verify.Forest(g, out.parent); err != nil {
						t.Fatalf("%v p=%d: %v", g, p, err)
					}
					wantEdges := g.NumVertices() - graph.NumComponents(g)
					if out.grafts != wantEdges {
						t.Fatalf("%v p=%d: %d grafts, want %d", g, p, out.grafts, wantEdges)
					}
				}
			}
		})
	}
}

func TestSpanningForestProperty(t *testing.T) {
	for _, m := range members() {
		t.Run(m.name, func(t *testing.T) {
			f := func(seed uint64, nRaw, mRaw uint16, pRaw uint8) bool {
				n := int(nRaw%200) + 1
				edges := int(mRaw % 400)
				p := int(pRaw%6) + 1
				g := gen.Random(n, edges, seed)
				out, err := m.run(g, Options{NumProcs: p})
				return err == nil && verify.Forest(g, out.parent) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestModelCharges(t *testing.T) {
	g := gen.Random(500, 800, 3)
	for _, m := range members() {
		t.Run(m.name, func(t *testing.T) {
			model := smpmodel.New(4)
			if _, err := m.run(g, Options{NumProcs: 4, Model: model}); err != nil {
				t.Fatal(err)
			}
			if model.Total().NonContig == 0 {
				t.Fatal("no cost charged")
			}
			if model.Barriers() == 0 {
				t.Fatal("no barriers recorded")
			}
		})
	}
	// Lock-based elections charge more than CAS ones.
	casModel, lockModel := smpmodel.New(4), smpmodel.New(4)
	if _, _, err := SpanningForest(g, Options{NumProcs: 4, Model: casModel}, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := SpanningForest(g, Options{NumProcs: 4, Model: lockModel}, true); err != nil {
		t.Fatal(err)
	}
	if lockModel.Total().NonContig <= casModel.Total().NonContig {
		t.Fatal("lock elections should charge more non-contiguous accesses")
	}
}

func TestMaxIterationsCap(t *testing.T) {
	// One iteration cannot finish a random-labeled chain. SV, HCS and AS
	// then return a forest that fails verification (documenting that the
	// cap is a testing knob, not a correctness feature); random mating
	// reports that it did not converge.
	g := graph.RandomRelabel(gen.Chain(512), 7)
	for _, m := range members() {
		t.Run(m.name, func(t *testing.T) {
			out, err := m.run(g, Options{NumProcs: 2, MaxIterations: 1})
			if m.name == "randmate" {
				if err == nil {
					t.Fatal("a capped random mating reported convergence")
				}
			} else if err != nil {
				t.Fatal(err)
			} else if verify.Forest(g, out.parent) == nil {
				t.Fatal("capped run unexpectedly produced a full spanning tree")
			}
			if out.iterations != 1 {
				t.Fatalf("ran %d iterations under a cap of 1", out.iterations)
			}
		})
	}
}

func TestRejectsBadOptions(t *testing.T) {
	g := gen.Chain(4)
	for _, m := range members() {
		t.Run(m.name, func(t *testing.T) {
			for _, opt := range []Options{{NumProcs: 0}, {NumProcs: -1}, {NumProcs: 2, MaxIterations: -1}} {
				if _, err := m.run(g, opt); err == nil {
					t.Fatalf("%+v accepted", opt)
				}
			}
		})
	}
}

func TestPackArcRoundTrip(t *testing.T) {
	for _, c := range [][2]graph.VID{{0, 1}, {5, 99999}, {1<<31 - 2, 1<<31 - 1}} {
		v, w := UnpackArc(PackArc(c[0], c[1]))
		if v != c[0] || w != c[1] {
			t.Fatalf("PackArc(%d,%d) round-trips to (%d,%d)", c[0], c[1], v, w)
		}
	}
}

func TestLabelingSensitivity(t *testing.T) {
	// The paper's observation: SV's iteration count depends strongly on
	// the labeling. The row-major chain finishes in a couple of
	// iterations; a random labeling needs around log n.
	n := 1 << 12
	seqChain := gen.Chain(n)
	randChain := graph.RandomRelabel(seqChain, 123)

	_, stSeq, err := SpanningForest(seqChain, Options{NumProcs: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	_, stRand, err := SpanningForest(randChain, Options{NumProcs: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if stSeq.Iterations > 3 {
		t.Fatalf("sequential labeling took %d iterations, want <= 3", stSeq.Iterations)
	}
	if stRand.Iterations <= stSeq.Iterations {
		t.Fatalf("random labeling took %d iterations, sequential %d: no sensitivity",
			stRand.Iterations, stSeq.Iterations)
	}
}

func TestHookToMinimumConvergesFasterOnAdversarialChain(t *testing.T) {
	// Hook-to-minimum can only help (never hurt) iteration counts
	// compared to arbitrary-winner SV on the same input; it must also
	// stay within the same complexity class (the paper found the two
	// algorithms comparable).
	g := graph.RandomRelabel(gen.Chain(1<<11), 77)
	_, hcsStats, err := HCS(g, Options{NumProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, svStats, err := SpanningForest(g, Options{NumProcs: 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if hcsStats.Iterations > svStats.Iterations+2 {
		t.Fatalf("HCS took %d iterations, SV %d: min-hooking should not be slower",
			hcsStats.Iterations, svStats.Iterations)
	}
}

func TestIterationsLogarithmic(t *testing.T) {
	// Awerbuch-Shiloach's unconditional hooks guarantee O(log n)
	// iterations even on adversarial labelings — the feature that
	// distinguishes it from hook-to-smaller-only schemes.
	g := graph.RandomRelabel(gen.Chain(1<<12), 31)
	_, st, err := AwerbuchShiloach(g, Options{NumProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	// 2 * log2(4096) = 24; allow generous slack for the jump-only tail.
	if st.Iterations > 40 {
		t.Fatalf("%d iterations on n=4096; AS should need O(log n)", st.Iterations)
	}
	if st.UnconditionalHooks == 0 {
		t.Fatal("adversarial chain should exercise unconditional hooks")
	}
}

func TestLabelingInsensitivity(t *testing.T) {
	// Random mating's round count is driven by coin flips, not labels:
	// both labelings of the same chain should take a similar number of
	// rounds (within a factor ~2), unlike SV's 2 vs ~log n contrast.
	n := 1 << 11
	seqChain := gen.Chain(n)
	randChain := graph.RandomRelabel(seqChain, 55)
	_, stSeq, err := RandomMating(seqChain, Options{NumProcs: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, stRand, err := RandomMating(randChain, Options{NumProcs: 4}, 1)
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
	a, _, err := RandomMating(g, Options{NumProcs: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RandomMating(g, Options{NumProcs: 3}, 2)
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

// components runs GraftFrom from singleton components and returns each
// vertex's final label and the number of components (the vertices that
// are their own label).
func components(g *graph.Graph, opt Options) ([]int32, int, error) {
	d := singletons(g.NumVertices())
	if _, _, err := GraftFrom(g, d, opt); err != nil {
		return nil, 0, err
	}
	comps := 0
	for v, dv := range d {
		if int(dv) == v {
			comps++
		}
	}
	return d, comps, nil
}

func TestGraftFromPartialState(t *testing.T) {
	// Pre-merge half the chain into one star and let SV finish.
	n := 40
	g := gen.Chain(n)
	d := make([]int32, n)
	for i := range d {
		if i < n/2 {
			d[i] = 0 // left half already one component rooted at 0
		} else {
			d[i] = int32(i)
		}
	}
	edges, st, err := GraftFrom(g, d, Options{NumProcs: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The right half contributes one graft per vertex.
	if len(edges) != n/2 {
		t.Fatalf("%d graft edges, want %d", len(edges), n/2)
	}
	if st.Grafts != len(edges) {
		t.Fatal("stats disagree with edges")
	}
	// All labels collapse to 0.
	for v, dv := range d {
		if dv != 0 {
			t.Fatalf("d[%d] = %d after convergence", v, dv)
		}
	}
	// Grafts only join distinct initial components.
	for _, e := range edges {
		if e.U >= int32(n/2) == (e.V >= int32(n/2)) && (e.U < int32(n/2)) && (e.V < int32(n/2)) {
			t.Fatalf("graft edge {%d,%d} internal to the premerged component", e.U, e.V)
		}
	}
}

func TestGraftFromRejectsBadState(t *testing.T) {
	g := gen.Chain(5)
	if _, _, err := GraftFrom(g, make([]int32, 3), Options{NumProcs: 1}); err == nil {
		t.Fatal("wrong-length labeling accepted")
	}
	bad := []int32{0, 0, 3, 3, 2} // d[4]=2 but d[2]=3: not a star
	if _, _, err := GraftFrom(g, bad, Options{NumProcs: 1}); err == nil {
		t.Fatal("non-star labeling accepted")
	}
	if _, _, err := GraftFrom(g, []int32{0, 0, 9, 3, 3}, Options{NumProcs: 1}); err == nil {
		t.Fatal("out-of-range labeling accepted")
	}
	if _, _, err := GraftFrom(g, singletons(5), Options{NumProcs: 0}); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := graph.Union(gen.Cycle(10), gen.Chain(5), gen.Star(7))
	labels, comps, err := components(g, Options{NumProcs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if comps != 3 {
		t.Fatalf("components = %d, want 3", comps)
	}
	ref, _ := graph.Components(g)
	for v := range labels {
		for w := range labels {
			if (labels[v] == labels[w]) != (ref[v] == ref[w]) {
				t.Fatalf("partition mismatch at %d,%d", v, w)
			}
		}
	}
	// Labels are component minima.
	if labels[0] != 0 || labels[10] != 10 || labels[15] != 15 {
		t.Fatalf("labels not minima: %v %v %v", labels[0], labels[10], labels[15])
	}
}
