package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"spantree/internal/fault"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/verify"
)

// sweepTorusSide is the side of the torus that closes sweepGraph: its
// BFS frontier passes DefaultChunkSize long before wrapping around, so a
// sweep that reaches it must spill.
const sweepTorusSide = 48

// sweepGraph is the quiescence sweep's workload: thousands of isolated
// vertices, small chains and stars, and a torus placed last in vertex
// order, so the cursor discovers the giant component only after every
// small one (when the stub walk starts outside it).
func sweepGraph() *graph.Graph {
	isolated, err := graph.FromEdges(3000, nil)
	if err != nil {
		panic(err)
	}
	parts := []*graph.Graph{isolated}
	for i := 0; i < 40; i++ {
		parts = append(parts, gen.Chain(2+i%7), gen.Star(3+i%5))
	}
	return graph.Union(append(parts, gen.Torus2D(sweepTorusSide, sweepTorusSide))...)
}

// checkForest asserts the oracle every sweep run must meet: a verified
// spanning forest with exactly one root per component.
func checkForest(t *testing.T, label string, g *graph.Graph, parent []graph.VID) {
	t.Helper()
	if err := verify.Forest(g, parent); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	roots := 0
	for _, pv := range parent {
		if pv == graph.None {
			roots++
		}
	}
	if want := graph.NumComponents(g); roots != want {
		t.Fatalf("%s: %d roots, want %d", label, roots, want)
	}
}

// TestSweepOracle drives the quiescence sweep end to end through both
// concurrent entry points. The stub walk covers exactly one component,
// so the cursor must seed every other one: CursorRoots is pinned too.
func TestSweepOracle(t *testing.T) {
	g := sweepGraph()
	wantSeeded := int64(graph.NumComponents(g) - 1)
	for _, p := range []int{1, 2, 4, 8} {
		for seed := uint64(1); seed <= 4; seed++ {
			parent, st, err := SpanningForest(g, Options{NumProcs: p, Seed: seed})
			if err != nil {
				t.Fatalf("one-shot p=%d seed=%d: %v", p, seed, err)
			}
			checkForest(t, "one-shot", g, parent)
			if st.CursorRoots != wantSeeded {
				t.Fatalf("one-shot p=%d seed=%d: %d cursor roots, want %d", p, seed, st.CursorRoots, wantSeeded)
			}
		}
		w, err := NewWorkspace(g, Options{NumProcs: p}, WorkspaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 4; seed++ {
			parent, st, err := w.Run(seed)
			if err != nil {
				t.Fatalf("workspace p=%d seed=%d: %v", p, seed, err)
			}
			checkForest(t, "workspace", g, parent)
			if st.CursorRoots != wantSeeded {
				t.Fatalf("workspace p=%d seed=%d: %d cursor roots, want %d", p, seed, st.CursorRoots, wantSeeded)
			}
		}
		w.Close()
	}
}

// TestSweepSpillsBigComponent runs one sweep directly on a fresh
// traversal: it must cover every small component with one root each,
// then claim the torus's first vertex, spill the torus frontier onto
// the leader's queue and leave the cursor just past that root.
func TestSweepSpillsBigComponent(t *testing.T) {
	g := sweepGraph()
	lo := g.NumVertices() - sweepTorusSide*sweepTorusSide
	for _, p := range []int{1, 4} {
		tr, err := newTeam(g, (&Options{NumProcs: p}).withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		var ws workerState
		tr.resetWorkerState(0, &ws)
		tr.sweep(0, tr.queues[0], &ws)

		if got := tr.queues[0].Len(); got < DefaultChunkSize {
			t.Fatalf("p=%d: leader queue holds %d vertices, want a spilled frontier of >= %d", p, got, DefaultChunkSize)
		}
		if got := tr.cursor.Load(); got != int64(lo)+1 {
			t.Fatalf("p=%d: cursor at %d, want %d (just past the torus root)", p, got, lo+1)
		}
		if tr.parent[lo] != graph.None {
			t.Fatalf("p=%d: torus root %d not claimed as a root", p, lo)
		}
		roots, claimed := 0, 0
		for v, pv := range tr.parent {
			if pv == unclaimed {
				if v < lo {
					t.Fatalf("p=%d: vertex %d before the torus left uncovered", p, v)
				}
				continue
			}
			claimed++
			if pv == graph.None {
				roots++
			}
		}
		if want := graph.NumComponents(g); roots != want {
			t.Fatalf("p=%d: %d roots, want one per component (%d)", p, roots, want)
		}
		if got := tr.visited.Load(); got != int64(claimed) {
			t.Fatalf("p=%d: visited = %d, %d vertices claimed", p, got, claimed)
		}
		if got := tr.rec.Total(obs.SeededComponents); got != int64(roots) {
			t.Fatalf("p=%d: %d seeded components recorded, %d roots", p, got, roots)
		}
	}
}

// sweepHook returns a test hook that calls act on the n-th hook call
// made while a sweep holds the seeding mutex. At p > 1 that call may
// come from a teammate blocked behind the sweep rather than the leader;
// either way act lands while the sweep is in progress. fired counts the
// mid-sweep calls.
func sweepHook(tr *traversal, n int64, fired *atomic.Int64, act func()) func(int) {
	return func(int) {
		if tr.seedMu.TryLock() {
			tr.seedMu.Unlock()
			return
		}
		if fired.Add(1) == n {
			act()
		}
	}
}

// TestSweepCancelMidSweep trips the workspace flag from inside a sweep:
// the run must drain with ErrCanceled within a chunk, and after the
// flag reset the same workspace must produce a valid forest again.
func TestSweepCancelMidSweep(t *testing.T) {
	g := sweepGraph()
	for _, p := range []int{1, 2, 4} {
		w, err := NewWorkspace(g, Options{NumProcs: p}, WorkspaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tr := w.t
		var fired atomic.Int64
		tr.o.testHook = sweepHook(tr, 3, &fired, func() { w.Flag().Trip(fault.CauseCanceled) })
		if _, _, err := w.Run(1); !errors.Is(err, fault.ErrCanceled) {
			t.Fatalf("p=%d: err = %v, want ErrCanceled", p, err)
		}
		if fired.Load() < 3 {
			t.Fatalf("p=%d: only %d hook calls landed mid-sweep", p, fired.Load())
		}
		// Alone, the leader must stop at its next poll, before running the
		// hook again: cancel latency is one chunk.
		if p == 1 && fired.Load() != 3 {
			t.Fatalf("p=1: sweep ran %d more polls after the trip", fired.Load()-3)
		}
		tr.o.testHook = nil
		w.Flag().Reset()
		parent, st, err := w.Run(2)
		if err != nil || st.DegradedToSeq {
			t.Fatalf("p=%d after cancel: err=%v degraded=%v", p, err, st.DegradedToSeq)
		}
		checkForest(t, "after cancel", g, parent)
		w.Close()
	}
}

// TestSweepPanicMidSweep panics from inside a sweep, through both
// concurrent entry points: the run degrades to the sequential BFS with
// the panic recorded and still returns a valid forest.
func TestSweepPanicMidSweep(t *testing.T) {
	g := sweepGraph()
	for _, p := range []int{1, 2, 4} {
		// The one-shot path of SpanningForest, opened up so the hook can
		// reach the traversal's seeding mutex.
		var fired atomic.Int64
		tr, err := newTeam(g, Options{NumProcs: p, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		tr.o.testHook = sweepHook(tr, 3, &fired, func() { panic("injected mid-sweep") })
		parent, st, err := tr.run()
		if err != nil {
			t.Fatalf("one-shot p=%d: err = %v", p, err)
		}
		if !st.DegradedToSeq || st.Panic == nil {
			t.Fatalf("one-shot p=%d: DegradedToSeq=%v Panic=%v", p, st.DegradedToSeq, st.Panic)
		}
		checkForest(t, "one-shot degraded", g, parent)

		w, err := NewWorkspace(g, Options{NumProcs: p}, WorkspaceOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fired.Store(0)
		tr = w.t
		tr.o.testHook = sweepHook(tr, 3, &fired, func() { panic("injected mid-sweep") })
		parent, wst, err := w.Run(1)
		if err != nil {
			t.Fatalf("workspace p=%d: err = %v", p, err)
		}
		if !wst.DegradedToSeq || wst.Panic == nil {
			t.Fatalf("workspace p=%d: DegradedToSeq=%v Panic=%v", p, wst.DegradedToSeq, wst.Panic)
		}
		checkForest(t, "workspace degraded", g, parent)
		tr.o.testHook = nil
		w.Flag().Reset()
		parent, wst, err = w.Run(2)
		if err != nil || wst.DegradedToSeq {
			t.Fatalf("workspace p=%d after panic: err=%v degraded=%v", p, err, wst.DegradedToSeq)
		}
		checkForest(t, "workspace after panic", g, parent)
		w.Close()
	}
}
