package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spantree/internal/fault"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/leakcheck"
	"spantree/internal/verify"
)

// TestEdgeCaseShapes is the table-driven boundary sweep: empty graph,
// single vertex, and far more processors than vertices, across both
// drivers. These are the inputs where off-by-one seeding or quiescence
// bugs bite first.
func TestEdgeCaseShapes(t *testing.T) {
	cases := []struct {
		name  string
		g     *graph.Graph
		procs int
	}{
		{"empty/p1", gen.Chain(0), 1},
		{"empty/p8", gen.Chain(0), 8},
		{"single/p1", gen.Chain(1), 1},
		{"single/p8", gen.Chain(1), 8},
		{"two/p16", gen.Chain(2), 16},
		{"p-gt-n/chain", gen.Chain(5), 32},
		{"p-gt-n/star", gen.Star(7), 64},
		{"p-gt-n/disconnected", graph.Union(gen.Chain(3), gen.Chain(2)), 24},
	}
	for name, run := range drivers() {
		for _, tc := range cases {
			parent, _, err := run(tc.g, Options{NumProcs: tc.procs, Seed: 9})
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.name, err)
			}
			if len(parent) != tc.g.NumVertices() {
				t.Fatalf("%s %s: parent length %d, want %d", name, tc.name, len(parent), tc.g.NumVertices())
			}
			if err := verify.Forest(tc.g, parent); err != nil {
				t.Fatalf("%s %s: %v", name, tc.name, err)
			}
			roots := 0
			for _, pv := range parent {
				if pv == graph.None {
					roots++
				}
			}
			if want := graph.NumComponents(tc.g); roots != want {
				t.Fatalf("%s %s: %d roots, want %d", name, tc.name, roots, want)
			}
		}
	}
}

// TestCancelMidRun trips the stop flag from a chunk boundary and checks
// the typed error, the bounded response (no worker passes more than one
// further boundary), and that every worker goroutine drained.
func TestCancelMidRun(t *testing.T) {
	g := gen.Random(5000, 10000, 3)
	for name, run := range drivers() {
		for _, p := range []int{1, 2, 4, 8} {
			flag := &fault.Flag{}
			var boundaries atomic.Int64
			var lateBoundaries atomic.Int64
			before := runtime.NumGoroutine()
			parent, _, err := run(g, Options{
				NumProcs: p,
				Seed:     11,
				Cancel:   flag,
				testHook: func(tid int) {
					if flag.Tripped() {
						lateBoundaries.Add(1)
						return
					}
					if boundaries.Add(1) == int64(3*p) {
						flag.Trip(fault.CauseCanceled)
					}
				},
			})
			if !errors.Is(err, fault.ErrCanceled) {
				t.Fatalf("%s p=%d: err = %v, want ErrCanceled", name, p, err)
			}
			if parent != nil {
				t.Fatalf("%s p=%d: canceled run returned a parent array", name, p)
			}
			// Each worker checks the flag before its boundary hook, so a
			// worker can cross at most one boundary after the trip (the one
			// it had already committed to when the flag flipped).
			if late := lateBoundaries.Load(); late > int64(p) {
				t.Fatalf("%s p=%d: %d chunk boundaries crossed after cancel, want <= %d", name, p, late, p)
			}
			leakcheck.Settle(t, before)
		}
	}
}

// TestCancelBeforeStart covers the pre-tripped flag (an already-expired
// deadline): the team is never woken, the typed error comes straight
// back, and no goroutine outlives the run.
func TestCancelBeforeStart(t *testing.T) {
	g := gen.Chain(100)
	for name, run := range drivers() {
		flag := &fault.Flag{}
		flag.Trip(fault.CauseDeadline)
		before := runtime.NumGoroutine()
		parent, _, err := run(g, Options{NumProcs: 4, Seed: 1, Cancel: flag})
		if !errors.Is(err, fault.ErrDeadline) {
			t.Fatalf("%s: err = %v, want ErrDeadline", name, err)
		}
		if parent != nil {
			t.Fatalf("%s: aborted run returned a parent array", name)
		}
		leakcheck.Settle(t, before)
	}
}

// TestPanicIsolationDegradesToSequential injects a panic at a chunk
// boundary of one worker and checks the contract: no panic escapes, the
// caller still receives a valid spanning forest (from the sequential
// degradation), and the structured PanicError lands in Stats.
func TestPanicIsolationDegradesToSequential(t *testing.T) {
	g := gen.Random(2000, 4000, 5)
	wantComps := graph.NumComponents(g)
	for name, run := range drivers() {
		for _, p := range []int{2, 4, 8} {
			var hits atomic.Int64
			before := runtime.NumGoroutine()
			parent, stats, err := run(g, Options{
				NumProcs: p,
				Seed:     13,
				// The third hook call panics, whichever worker makes it: a
				// fixed tid can be starved of chunk boundaries entirely.
				testHook: func(int) {
					if hits.Add(1) == 3 {
						panic("injected test panic")
					}
				},
			})
			if err != nil {
				t.Fatalf("%s p=%d: err = %v, want graceful degradation", name, p, err)
			}
			if !stats.DegradedToSeq || stats.Panic == nil {
				t.Fatalf("%s p=%d: stats = {DegradedToSeq:%v Panic:%v}, want recorded degradation",
					name, p, stats.DegradedToSeq, stats.Panic)
			}
			if stats.Panic.Value != "injected test panic" {
				t.Fatalf("%s p=%d: panic value %v not preserved", name, p, stats.Panic.Value)
			}
			if len(stats.Panic.Stack) == 0 {
				t.Fatalf("%s p=%d: panic stack not captured", name, p)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s p=%d: degraded forest invalid: %v", name, p, err)
			}
			roots := 0
			for _, pv := range parent {
				if pv == graph.None {
					roots++
				}
			}
			if roots != wantComps {
				t.Fatalf("%s p=%d: degraded forest has %d roots, want %d", name, p, roots, wantComps)
			}
			leakcheck.Settle(t, before)
		}
	}
}

// TestPanicRecordedInObs checks the observability side of isolation:
// the recovery increments the panicking worker's own counter slot.
func TestPanicRecordedInObs(t *testing.T) {
	g := gen.Chain(500)
	var hits, panicked atomic.Int64
	flag := &fault.Flag{}
	_, stats, err := SpanningForest(g, Options{
		NumProcs: 2,
		Seed:     7,
		Cancel:   flag,
		// The second hook call panics, whichever worker makes it (a fixed
		// tid may never reach a chunk boundary); the test then checks the
		// panic is attributed to that worker.
		testHook: func(tid int) {
			if hits.Add(1) == 2 {
				panicked.Store(int64(tid))
				panic("obs probe")
			}
		},
	})
	if err != nil || stats.Panic == nil {
		t.Fatalf("err=%v panic=%v, want isolated panic", err, stats.Panic)
	}
	if want := int(panicked.Load()); stats.Panic.Worker != want {
		t.Fatalf("panic attributed to worker %d, want %d", stats.Panic.Worker, want)
	}
	if flag.Cause() != fault.CausePanicked {
		t.Fatalf("caller flag cause = %v, want panicked", flag.Cause())
	}
}

// TestFallbackHandlesPartiallyWrittenParent hands the SV completion a
// partially-written claim array — what an aborted traversal leaves
// behind: a few claimed subtrees rooted at graph.None, every other
// vertex still unclaimed. The fallback must terminate, resolve it into
// a valid forest, and count that forest's roots itself.
func TestFallbackHandlesPartiallyWrittenParent(t *testing.T) {
	g := gen.RandomConnected(300, 600, 17)
	tr, _ := newTeam(g, Options{NumProcs: 2, Seed: 1})
	// Simulate the interrupted state: a handful of claimed subtrees,
	// everything else unclaimed. Claimed edges must be real graph edges
	// so the final forest can verify.
	for _, root := range []graph.VID{0, 50, 100} {
		if !tr.claimSeq(root, graph.None) {
			t.Fatalf("seed claim of %d failed", root)
		}
		cur := root
		for range [5]int{} {
			claimed := graph.None
			for _, w := range g.Neighbors(cur) {
				if tr.claimSeq(w, cur) {
					claimed = w
					break
				}
			}
			if claimed == graph.None {
				break
			}
			cur = claimed
		}
	}
	done := make(chan error, 1)
	var counted int
	go func() {
		var err error
		_, counted, err = tr.fallback()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fallback: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fallback did not terminate on a partially-claimed parent array (walk loop regression)")
	}
	if err := verify.Forest(g, tr.parent); err != nil {
		t.Fatalf("fallback produced an invalid forest: %v", err)
	}
	roots := 0
	for _, pv := range tr.parent {
		if pv == graph.None {
			roots++
		}
	}
	if roots != 1 || counted != 1 {
		t.Fatalf("%d roots (fallback counted %d) on a connected graph, want 1", roots, counted)
	}
}
