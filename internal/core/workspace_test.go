package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"spantree/internal/fault"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/leakcheck"
	"spantree/internal/verify"
)

func TestWorkspaceAllShapes(t *testing.T) {
	for _, g := range shapes() {
		for _, p := range []int{1, 2, 4} {
			w, err := NewWorkspace(g, Options{NumProcs: p})
			if err != nil {
				t.Fatalf("%v p=%d: NewWorkspace: %v", g, p, err)
			}
			wantComps := graph.NumComponents(g)
			// Several runs per workspace: reuse must not corrupt state.
			for _, seed := range []uint64{1, 42, 42, 7} {
				parent, st, err := w.Run(seed)
				if err != nil {
					t.Fatalf("%v p=%d seed=%d: %v", g, p, seed, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%v p=%d seed=%d: %v", g, p, seed, err)
				}
				roots := 0
				for _, pv := range parent {
					if pv == graph.None {
						roots++
					}
				}
				if roots != wantComps {
					t.Fatalf("%v p=%d seed=%d: %d roots, want %d", g, p, seed, roots, wantComps)
				}
				if g.NumVertices() > 0 && st.StubSize == 0 {
					t.Fatalf("%v p=%d: empty stub", g, p)
				}
			}
			w.Close()
		}
	}
}

// TestWorkspaceMatchesOneShot pins reuse: a pooled workspace must match
// a one-shot run with the same pendant trees pre-claimed
// (WithPendantTrim), a fresh workspace run once, byte for byte run after
// run at p=1, where both are deterministic. At p>1 the pooled run must
// still be a valid forest with the same component structure and stub
// (checked in TestWorkspaceAllShapes). TestOneShotGolden pins the
// one-shot side itself.
func TestWorkspaceMatchesOneShot(t *testing.T) {
	for _, g := range append(shapes(), leafyShapes()...) {
		if g.NumVertices() == 0 {
			continue
		}
		fresh, freshStats, err := SpanningForest(g, WithPendantTrim(Options{NumProcs: 1, Seed: 99}))
		if err != nil {
			t.Fatalf("%v: one-shot: %v", g, err)
		}
		w, err := NewWorkspace(g, Options{NumProcs: 1})
		if err != nil {
			t.Fatalf("%v: NewWorkspace: %v", g, err)
		}
		for run := 0; run < 3; run++ {
			pooled, st, err := w.Run(99)
			if err != nil {
				t.Fatalf("%v run %d: %v", g, run, err)
			}
			for v := range fresh {
				if pooled[v] != fresh[v] {
					t.Fatalf("%v run %d: parent[%d] = %d, one-shot %d", g, run, v, pooled[v], fresh[v])
				}
			}
			if st.StubSize != freshStats.StubSize || st.Roots != freshStats.Roots || st.Pendant != freshStats.Pendant {
				t.Fatalf("%v run %d: stub/roots/pendant %d/%d/%d, one-shot %d/%d/%d", g, run,
					st.StubSize, st.Roots, st.Pendant, freshStats.StubSize, freshStats.Roots, freshStats.Pendant)
			}
		}
		w.Close()
	}
}

// TestWorkspaceZeroAlloc is the tentpole guarantee: a warmed workspace
// runs the full two-step algorithm without a single steady-state heap
// allocation — on a connected torus, on a random graph of ~1,200
// components, where the quiescence sweep covers most of them, and on
// the Fig. 3 ratio m = 1.5n, whose pendant trees every run copies in
// pre-claimed from the workspace's image.
func TestWorkspaceZeroAlloc(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"torus":      gen.Torus2D(32, 32),
		"components": gen.Random(4096, 3072, 1),
		"leafy":      gen.Random(4096, 6144, 1),
	}
	for name, g := range graphs {
		for _, p := range []int{1, 4} {
			w, err := NewWorkspace(g, Options{NumProcs: p})
			if err != nil {
				t.Fatal(err)
			}
			// Warm: first runs pay one-time costs (per-goroutine sleep timers).
			for i := 0; i < 3; i++ {
				if _, _, err := w.Run(uint64(i)); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(10, func() {
				if _, _, err := w.Run(42); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("%s p=%d: AllocsPerRun = %v, want 0", name, p, avg)
			}
			w.Close()
		}
	}
}

// TestWorkspaceReusableAfterCancel: a run stopped by its flag leaves the
// workspace fully functional, and the flag-reset contract (caller resets
// before re-arming) restores normal completion.
func TestWorkspaceReusableAfterCancel(t *testing.T) {
	g := gen.RandomConnected(300, 600, 3)
	w, err := NewWorkspace(g, Options{NumProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Flag().Trip(fault.CauseCanceled)
	if _, _, err := w.Run(1); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("tripped run: err = %v, want ErrCanceled", err)
	}
	// Without a reset the flag stays tripped.
	if _, _, err := w.Run(2); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("still-tripped run: err = %v, want ErrCanceled", err)
	}
	w.Flag().Reset()
	parent, _, err := w.Run(3)
	if err != nil {
		t.Fatalf("after reset: %v", err)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

// TestWorkspaceReusableAfterPanic: an isolated worker panic degrades the
// run to the sequential path and the parked team survives for the next
// request.
func TestWorkspaceReusableAfterPanic(t *testing.T) {
	g := gen.RandomConnected(400, 800, 5)
	w, err := NewWorkspace(g, Options{NumProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// The first hook call panics, whichever worker makes it: aiming at a
	// fixed tid would miss whenever that worker starts only after its
	// teammate has covered the whole graph.
	var fired atomic.Bool
	w.t.o.testHook = func(int) {
		if fired.CompareAndSwap(false, true) {
			panic("injected")
		}
	}
	parent, st, err := w.Run(1)
	if err != nil {
		t.Fatalf("panic run: err = %v", err)
	}
	if !st.DegradedToSeq || st.Panic == nil {
		t.Fatalf("panic run: DegradedToSeq=%v Panic=%v", st.DegradedToSeq, st.Panic)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatalf("degraded forest: %v", err)
	}
	w.t.o.testHook = nil
	w.Flag().Reset()
	parent, st, err = w.Run(2)
	if err != nil || st.DegradedToSeq {
		t.Fatalf("after panic: err=%v degraded=%v", err, st.DegradedToSeq)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatalf("after panic: %v", err)
	}
}

// TestWorkspaceTeamDoesNotGrow: the parked team is created once — the
// goroutine count is flat across requests, and Close releases it.
func TestWorkspaceTeamDoesNotGrow(t *testing.T) {
	g := gen.Torus2D(16, 16)
	before := runtime.NumGoroutine()
	w, err := NewWorkspace(g, Options{NumProcs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Run(1); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, _, err := w.Run(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	leakcheck.Settle(t, base)
	w.Close()
	// Close joins the team, but WaitGroup.Done runs before each goroutine
	// returns, so the count settles back to the pre-construction level
	// only a moment later.
	leakcheck.Settle(t, before)
	if _, _, err := w.Run(1); !errors.Is(err, ErrWorkspaceClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrWorkspaceClosed", err)
	}
}

// TestWorkerSlotPadding: worker states sit in slots of whole 128-byte
// line pairs, whatever workerState's size.
func TestWorkerSlotPadding(t *testing.T) {
	if size := unsafe.Sizeof(workerSlot{}); size%128 != 0 {
		t.Fatalf("workerSlot is %d bytes, want a multiple of 128", size)
	}
}

func TestWorkspaceRejectsUnsupportedOptions(t *testing.T) {
	g := gen.Chain(10)
	bad := []Options{
		{NumProcs: 0},
		{NumProcs: 1, Deg2Eliminate: true},
		{NumProcs: 1, Cancel: &fault.Flag{}},
	}
	for i, o := range bad {
		if _, err := NewWorkspace(g, o); err == nil {
			t.Errorf("case %d: NewWorkspace accepted unsupported options", i)
		}
	}
}

// benchInputs are the wall-clock benchmarks' graphs: random is the
// Fig. 3 input G(n, 1.5n) at 2^18 vertices, memory-bound with many
// components; torus is a 512 x 512 mesh.
var benchInputs = []struct {
	name string
	mk   func() *graph.Graph
}{
	{"random", func() *graph.Graph { return gen.Random(1<<18, 3<<17, 1) }},
	{"torus", func() *graph.Graph { return gen.Torus2D(512, 512) }},
}

// BenchmarkWorkspaceRun times a warmed pooled Run at p = 2: the drain
// loop's wall-clock cost, measured without the bench/ harness.
func BenchmarkWorkspaceRun(b *testing.B) {
	for _, c := range benchInputs {
		b.Run(c.name, func(b *testing.B) {
			w, err := NewWorkspace(c.mk(), Options{NumProcs: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			if _, _, err := w.Run(0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := w.Run(uint64(i) + 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSpanningForest times a one-shot run at p = 2, team start and
// stop and every allocation included.
func BenchmarkSpanningForest(b *testing.B) {
	for _, c := range benchInputs {
		b.Run(c.name, func(b *testing.B) {
			g := c.mk()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := SpanningForest(g, Options{NumProcs: 2, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
