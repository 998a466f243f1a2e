package spantree

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spantree/internal/core"
	"spantree/internal/gen"
	"spantree/internal/graph"
)

// TestFindContextBackground: a background context must behave exactly
// like Find — no watcher goroutine, no error.
func TestFindContextBackground(t *testing.T) {
	g := gen.Torus2D(8, 8)
	for _, algo := range Algorithms() {
		res, err := FindContext(context.Background(), g, Options{
			Algorithm: algo, NumProcs: 4, Seed: 1, Verify: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if res.Roots != 1 {
			t.Fatalf("%v: %d roots, want 1", algo, res.Roots)
		}
	}
}

// TestFindContextPreCanceled: an already-canceled context is rejected
// with the typed error before any worker starts, for every algorithm
// (including the sequential baselines).
func TestFindContextPreCanceled(t *testing.T) {
	g := gen.Chain(500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, algo := range Algorithms() {
		before := runtime.NumGoroutine()
		res, err := FindContext(ctx, g, Options{Algorithm: algo, NumProcs: 4, Seed: 1})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: err = %v, want ErrCanceled", algo, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: ErrCanceled must wrap context.Canceled", algo)
		}
		if res != nil {
			t.Fatalf("%v: canceled run returned a result", algo)
		}
		waitNumGoroutine(t, before)
	}
}

// TestFindContextExpiredDeadline: same for a dead deadline.
func TestFindContextExpiredDeadline(t *testing.T) {
	g := gen.Chain(500)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	// The watcher trips the flag asynchronously; an expired deadline
	// shows up by the first poll at the latest, so retry-free assertion
	// needs the ctx to be visibly done first.
	<-ctx.Done()
	_, err := FindContext(ctx, g, Options{Algorithm: AlgWorkStealing, NumProcs: 2, Seed: 1})
	if !errors.Is(err, ErrDeadline) && !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if errors.Is(err, ErrDeadline) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("ErrDeadline must wrap context.DeadlineExceeded")
	}
}

// TestFindContextCancelMidRun cancels while the traversal is running
// and checks the typed error plus full goroutine drainage.
func TestFindContextCancelMidRun(t *testing.T) {
	g := gen.Random(200000, 400000, 3)
	for _, algo := range []Algorithm{AlgWorkStealing, AlgSV, AlgHCS, AlgAwerbuchShiloach, AlgLevelBFS, AlgSpanUF} {
		ctx, cancel := context.WithCancel(context.Background())
		before := runtime.NumGoroutine()
		go func() {
			time.Sleep(2 * time.Millisecond)
			cancel()
		}()
		res, err := FindContext(ctx, g, Options{Algorithm: algo, NumProcs: 8, Seed: 5})
		cancel()
		if err == nil {
			// The run legitimately beat the cancel; fine, but then the
			// result must be complete and valid.
			if verr := Verify(g, res.Parent); verr != nil {
				t.Fatalf("%v: completed run invalid: %v", algo, verr)
			}
			continue
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v: err = %v, want ErrCanceled", algo, err)
		}
		waitNumGoroutine(t, before)
	}
}

// TestValidateInput: the option front-loads graph.Validate and returns
// its typed error.
func TestValidateInput(t *testing.T) {
	bad := &Graph{Offs: []int64{0, 1, 2}, Adj: []VID{1, 1}}
	_, err := Find(bad, Options{ValidateInput: true, NumProcs: 2})
	ve, ok := AsValidationError(err)
	if !ok {
		t.Fatalf("err = %v, want a *ValidationError", err)
	}
	if ve.Code == 0 || ve.Code.String() == "" {
		t.Fatalf("validation error missing its code: %+v", ve)
	}
	// A valid graph must pass with the option on.
	if _, err := Find(gen.Chain(10), Options{ValidateInput: true, Verify: true}); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
}

// TestChaosSeedGating: without the chaos build tag, arming the injector
// must be an explicit error, never a silently clean run. (The chaos
// build runs the seeded run for real instead.)
func TestChaosSeedGating(t *testing.T) {
	g := gen.Chain(100)
	res, err := Find(g, Options{ChaosSeed: 42, NumProcs: 2, Verify: true})
	if ChaosEnabled {
		if err != nil {
			t.Fatalf("chaos build: seeded run failed: %v", err)
		}
		if res.Roots != 1 {
			t.Fatalf("chaos build: %d roots, want 1", res.Roots)
		}
		return
	}
	if err == nil {
		t.Fatal("ChaosSeed accepted by a binary built without -tags chaos")
	}
}

// TestEdgeCaseTable is the public-API boundary sweep (empty input,
// single vertex, p far beyond n, and a spread of small shapes: hubs,
// cliques, high diameter, many components, relabeled ids) across every
// algorithm.
func TestEdgeCaseTable(t *testing.T) {
	shapes := []struct {
		name string
		g    *Graph
	}{
		{"empty", gen.Chain(0)},
		{"single", gen.Chain(1)},
		{"two", gen.Chain(2)},
		{"small-disconnected", graph.Union(gen.Chain(3), gen.Chain(2), gen.Chain(1))},
		{"chain", gen.Chain(100)},
		{"star", gen.Star(64)},
		{"cycle", gen.Cycle(40)},
		{"complete", gen.Complete(16)},
		{"torus", gen.Torus2D(8, 8)},
		{"torus-relabeled", graph.RandomRelabel(gen.Torus2D(8, 8), 6)},
		{"random", gen.Random(200, 300, 1)},
		{"random-connected", gen.RandomConnected(150, 250, 2)},
		{"ad3", gen.AD3(120, 3)},
		{"geo-hier", gen.GeoHier(200, gen.DefaultGeoHierParams(), 4)},
		{"mixed-components", graph.Union(gen.Chain(10), gen.Star(8), gen.Cycle(7), gen.Random(30, 45, 5))},
		{"binary-tree", gen.BinaryTree(63)},
		{"caterpillar", gen.Caterpillar(41)},
	}
	for _, algo := range Algorithms() {
		for _, tc := range shapes {
			for _, p := range []int{1, 4, 33} {
				res, err := Find(tc.g, Options{Algorithm: algo, NumProcs: p, Seed: 2, Verify: true})
				if err != nil {
					t.Fatalf("%v %s p=%d: %v", algo, tc.name, p, err)
				}
				if len(res.Parent) != tc.g.NumVertices() {
					t.Fatalf("%v %s p=%d: parent length %d", algo, tc.name, p, len(res.Parent))
				}
				if want := graph.NumComponents(tc.g); res.Roots != want {
					t.Fatalf("%v %s p=%d: %d roots, want %d", algo, tc.name, p, res.Roots, want)
				}
			}
		}
	}
}

// TestUnrepresentableGraphErrors: the work-stealing traversal reads a
// uint32 mirror of the CSR, so a graph whose offsets pass 2^32 gets
// graph.CompactOf's error, wrapped, from Find and NewSession — never a
// panic.
func TestUnrepresentableGraphErrors(t *testing.T) {
	g := &Graph{Offs: []int64{0, 1 << 33}}
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
	_, err := Find(g, Options{NumProcs: 2})
	check("Find", err)
	_, err = NewSession(g, SessionOptions{NumProcs: 2})
	check("NewSession", err)
}

// TestPublicPanicDegradation drives the panic-isolation contract
// against the public re-exports: the degradation path's PanicError
// must be recognized by spantree.AsPanicError and the degraded forest
// by spantree.Verify.
func TestPublicPanicDegradation(t *testing.T) {
	g := gen.Random(2000, 4000, 8)
	var hits atomic.Int64
	parent, stats, err := core.SpanningForest(g, core.WithTestHook(
		core.Options{NumProcs: 4, Seed: 3},
		func(tid int) {
			if tid == 1 && hits.Add(1) == 2 {
				panic("public API probe")
			}
		}))
	if err != nil {
		t.Fatalf("degraded run errored: %v", err)
	}
	if !stats.DegradedToSeq || stats.Panic == nil {
		t.Fatalf("degradation not recorded in stats: %+v", stats)
	}
	if _, ok := AsPanicError(stats.Panic); !ok {
		t.Fatal("Stats.Panic is not recognized by AsPanicError")
	}
	var pe *PanicError
	if !errors.As(error(stats.Panic), &pe) || pe.Worker != 1 {
		t.Fatalf("re-exported PanicError mismatch: %v", stats.Panic)
	}
	if verr := Verify(g, parent); verr != nil {
		t.Fatalf("degraded forest invalid: %v", verr)
	}
}

func waitNumGoroutine(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d live, want <= %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}
