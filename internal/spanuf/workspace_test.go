package spanuf

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spantree/internal/fault"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
	"spantree/internal/verify"
)

func TestWorkspaceAllFamilies(t *testing.T) {
	for name, g := range fig4Families() {
		wantComps := graph.NumComponents(g)
		for _, p := range []int{1, 4} {
			w, err := NewWorkspace(g, Options{NumProcs: p})
			if err != nil {
				t.Fatalf("%s p=%d: NewWorkspace: %v", name, p, err)
			}
			// Several runs per workspace: reuse must not corrupt state.
			for run := 0; run < 3; run++ {
				parent, st, err := w.Run(uint64(run))
				if err != nil {
					t.Fatalf("%s p=%d run %d: %v", name, p, run, err)
				}
				if err := verify.Forest(g, parent); err != nil {
					t.Fatalf("%s p=%d run %d: %v", name, p, run, err)
				}
				if got := countRoots(parent); got != wantComps {
					t.Fatalf("%s p=%d run %d: %d roots, want %d", name, p, run, got, wantComps)
				}
				if st.TreeEdges != g.NumVertices()-wantComps {
					t.Fatalf("%s p=%d run %d: TreeEdges = %d, want %d",
						name, p, run, st.TreeEdges, g.NumVertices()-wantComps)
				}
			}
			w.Close()
		}
	}
}

// TestWorkspaceMatchesOneShot pins the pooled path to the one-shot
// path: at p=1 both process arcs in vertex order and root the forest
// with the same deterministic epilogue, so the parent arrays must be
// byte-identical — on both layouts.
func TestWorkspaceMatchesOneShot(t *testing.T) {
	g := gen.GeoHier(700, gen.DefaultGeoHierParams(), 61)
	for _, compact := range []bool{false, true} {
		fresh, _, err := SpanningForest(g, Options{NumProcs: 1, Compact: compact})
		if err != nil {
			t.Fatalf("compact=%v: one-shot: %v", compact, err)
		}
		w, err := NewWorkspace(g, Options{NumProcs: 1, Compact: compact})
		if err != nil {
			t.Fatalf("compact=%v: NewWorkspace: %v", compact, err)
		}
		for run := 0; run < 3; run++ {
			pooled, _, err := w.Run(uint64(run))
			if err != nil {
				t.Fatalf("compact=%v run %d: %v", compact, run, err)
			}
			for v := range fresh {
				if pooled[v] != fresh[v] {
					t.Fatalf("compact=%v run %d: parent[%d] = %d, one-shot %d",
						compact, run, v, pooled[v], fresh[v])
				}
			}
		}
		w.Close()
	}
}

// TestWorkspaceZeroAlloc is the provisioning guarantee: a warmed
// workspace runs the sweep and the rooting epilogue without a single
// steady-state heap allocation, wide or compact.
func TestWorkspaceZeroAlloc(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, compact := range []bool{false, true} {
			g := gen.Torus2D(32, 32)
			w, err := NewWorkspace(g, Options{NumProcs: p, Compact: compact})
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
				t.Errorf("p=%d compact=%v: AllocsPerRun = %v, want 0", p, compact, avg)
			}
			w.Close()
		}
	}
}

// TestWorkspaceReusableAfterCancel: a run stopped by its flag leaves
// the workspace fully functional, and the flag-reset contract (caller
// resets before re-arming) restores normal completion.
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

// TestWorkspaceMidRunCancel trips the flag from inside the sweep (via
// the chunk-boundary test hook) and checks both the typed error and the
// documented cancellation-latency bound: after the trip each worker
// finishes at most the chunk in hand, so the cursor never advances past
// the chunks already claimed when the trip landed plus one per worker.
func TestWorkspaceMidRunCancel(t *testing.T) {
	g := gen.Chain(100_000)
	const chunk = 64
	p := 4
	w, err := NewWorkspace(g, Options{NumProcs: p, ChunkSize: chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.testHook = func(tid int) {
		w.cancel.Trip(fault.CauseCanceled)
	}
	if _, _, err := w.Run(1); !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("mid-run cancel: err = %v, want ErrCanceled", err)
	}
	// The first claim trips the flag; every other worker can have at most
	// one claim in flight that raced the trip, and nobody claims again
	// after polling a tripped flag.
	if claimed := w.cursor.Load(); claimed > int64(p*chunk) {
		t.Fatalf("cursor advanced to %d after trip, bound is p*chunk = %d", claimed, p*chunk)
	}
	w.testHook = nil
	w.Flag().Reset()
	parent, _, err := w.Run(2)
	if err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatalf("after cancel: %v", err)
	}
}

// TestWorkspaceReusableAfterPanic: an isolated worker panic degrades
// the run to the sequential repair — still a valid forest — and the
// parked team survives for the next request.
func TestWorkspaceReusableAfterPanic(t *testing.T) {
	g := gen.RandomConnected(400, 800, 5)
	w, err := NewWorkspace(g, Options{NumProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var fired atomic.Bool
	w.testHook = func(tid int) {
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
	if got := countRoots(parent); got != 1 {
		t.Fatalf("degraded forest: %d roots, want 1", got)
	}
	w.testHook = nil
	w.Flag().Reset()
	parent, st, err = w.Run(2)
	if err != nil || st.DegradedToSeq {
		t.Fatalf("after panic: err=%v degraded=%v", err, st.DegradedToSeq)
	}
	if err := verify.Forest(g, parent); err != nil {
		t.Fatalf("after panic: %v", err)
	}
}

// settleGoroutines waits up to two seconds for the goroutine count to
// fall to want or below, and fails with every goroutine's stack if it
// does not. Goroutines whose work is done still need a moment to exit
// (WaitGroup.Done runs before the goroutine returns), and under a
// loaded test binary that moment can outlast any fixed number of yields.
func settleGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines, want <= %d\n%s", what, runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
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
	settleGoroutines(t, base, "goroutines grew with requests")
	w.Close()
	settleGoroutines(t, before, "goroutines leaked after Close")
	if _, _, err := w.Run(1); !errors.Is(err, ErrWorkspaceClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrWorkspaceClosed", err)
	}
}

func TestWorkspaceRejectsUnsupportedOptions(t *testing.T) {
	g := gen.Chain(10)
	bad := []Options{
		{NumProcs: 0},
		{NumProcs: 1, Model: smpmodel.New(1)},
		{NumProcs: 1, Obs: obs.New(1)},
		{NumProcs: 1, Cancel: &fault.Flag{}},
	}
	for i, o := range bad {
		if _, err := NewWorkspace(g, o); err == nil {
			t.Errorf("case %d: NewWorkspace accepted unsupported options", i)
		}
	}
}
