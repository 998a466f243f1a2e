//go:build chaos

package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/leakcheck"
	"spantree/internal/verify"
)

// The chaos stress suite: drive both drivers through >= 50 seeded
// perturbation schedules each and prove the invariants the hardened
// runtime guarantees — termination, exactly-once claiming (every vertex
// has exactly one parent and the result verifies as a forest), and one
// root per component. Schedules are deterministic per seed, so any
// failure replays from the seed in the test name.

const stressSeeds = 50

func stressGraphs() []*graph.Graph {
	return []*graph.Graph{
		gen.Random(800, 1600, 3),
		graph.Union(gen.Chain(50), gen.Star(40), gen.Random(200, 300, 9)),
		gen.Torus2D(16, 16),
		// ~1,500 tiny components: the quiescence sweep does most of the
		// work, under claim stalls and aimed panics.
		gen.Random(3000, 1500, 4),
	}
}

func runStress(t *testing.T, name string, run func(*graph.Graph, Options) ([]graph.VID, Stats, error)) {
	t.Helper()
	for gi, g := range stressGraphs() {
		wantComps := graph.NumComponents(g)
		for seed := uint64(1); seed <= stressSeeds; seed++ {
			p := 2 + int(seed%7)
			inj := chaos.New(chaos.DefaultConfig(seed, p), nil)
			done := make(chan struct{})
			var parent []graph.VID
			var err error
			go func() {
				defer close(done)
				parent, _, err = run(g, Options{NumProcs: p, Seed: seed, Chaos: inj})
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Minute):
				t.Fatalf("%s g%d seed=%d p=%d: run did not terminate under chaos", name, gi, seed, p)
			}
			if err != nil {
				t.Fatalf("%s g%d seed=%d p=%d: %v", name, gi, seed, p, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s g%d seed=%d p=%d: %v", name, gi, seed, p, err)
			}
			roots := 0
			for _, pv := range parent {
				if pv == graph.None {
					roots++
				}
			}
			if roots != wantComps {
				t.Fatalf("%s g%d seed=%d p=%d: %d roots, want %d", name, gi, seed, p, roots, wantComps)
			}
			if inj.Injections() == 0 && g.NumVertices() > 100 {
				t.Fatalf("%s g%d seed=%d p=%d: chaos injected nothing (layer not wired?)", name, gi, seed, p)
			}
		}
	}
}

func TestChaosStressConcurrent(t *testing.T) { runStress(t, "concurrent", SpanningForest) }
func TestChaosStressLockstep(t *testing.T)   { runStress(t, "lockstep", LockstepForest) }

// TestChaosAimedPanicStillYieldsValidTree fires an InjectedPanic at a
// chosen chaos point of a chosen worker and checks the graceful
// degradation: a valid forest plus the structured PanicError in Stats.
func TestChaosAimedPanicStillYieldsValidTree(t *testing.T) {
	g := gen.Random(1500, 3000, 21)
	wantComps := graph.NumComponents(g)
	points := []chaos.Point{chaos.PointDrain, chaos.PointClaim, chaos.PointSteal, chaos.PointIdle}
	for name, run := range drivers() {
		for _, pt := range points {
			const p = 4
			cfg := chaos.Config{
				Seed: 5, Workers: p,
				PanicPoint: pt, PanicWorker: p - 1, PanicAfter: 2,
			}
			inj := chaos.New(cfg, nil)
			before := runtime.NumGoroutine()
			parent, stats, err := run(g, Options{NumProcs: p, Seed: 3, Chaos: inj})
			if err != nil {
				t.Fatalf("%s point=%v: err = %v, want graceful degradation", name, pt, err)
			}
			if stats.Panic == nil {
				// Not every run visits every point (steal/idle need real
				// contention, which the lockstep driver reaches rarely);
				// a panic-free run must then simply be a valid normal run.
				if !stats.DegradedToSeq {
					if err := verify.Forest(g, parent); err != nil {
						t.Fatalf("%s point=%v: %v", name, pt, err)
					}
					continue
				}
				t.Fatalf("%s point=%v: degraded without a recorded panic", name, pt)
			}
			ip, ok := stats.Panic.Value.(chaos.InjectedPanic)
			if !ok {
				t.Fatalf("%s point=%v: panic value %v is not an InjectedPanic", name, pt, stats.Panic.Value)
			}
			if ip.Worker != p-1 || ip.Point != pt {
				t.Fatalf("%s point=%v: panic fired at %+v", name, pt, ip)
			}
			if !stats.DegradedToSeq {
				t.Fatalf("%s point=%v: panic recorded but run not degraded", name, pt)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s point=%v: degraded forest invalid: %v", name, pt, err)
			}
			roots := 0
			for _, pv := range parent {
				if pv == graph.None {
					roots++
				}
			}
			if roots != wantComps {
				t.Fatalf("%s point=%v: %d roots, want %d", name, pt, roots, wantComps)
			}
			leakcheck.Settle(t, before)
		}
	}
}

// TestChaosWithCancellation combines perturbation with mid-run cancels:
// under arbitrary seeded schedules a tripped flag must still produce
// ErrCanceled and a drained team.
func TestChaosWithCancellation(t *testing.T) {
	g := gen.Random(3000, 6000, 2)
	for name, run := range drivers() {
		for seed := uint64(1); seed <= 10; seed++ {
			p := 2 + int(seed%4)
			inj := chaos.New(chaos.DefaultConfig(seed, p), nil)
			flag := &fault.Flag{}
			var hooks atomic.Int64
			before := runtime.NumGoroutine()
			parent, _, err := run(g, Options{
				NumProcs: p, Seed: seed, Cancel: flag, Chaos: inj,
				testHook: func(tid int) {
					if hooks.Add(1) >= int64(2*p) {
						flag.Trip(fault.CauseCanceled)
					}
				},
			})
			if !errors.Is(err, fault.ErrCanceled) {
				t.Fatalf("%s seed=%d: err = %v, want ErrCanceled", name, seed, err)
			}
			if parent != nil {
				t.Fatalf("%s seed=%d: canceled run returned a parent array", name, seed)
			}
			leakcheck.Settle(t, before)
		}
	}
}

// TestChaosStressServingWorkspace drives the serving driver through the
// stress schedules: one provisioned workspace per graph with its pendant
// trees pre-claimed, as NewWorkspace builds it, but with an injector,
// reused for stressSeeds runs. Every run draws its own seeded schedule
// of stalls and steal vetoes; one run also aims a panic at worker 0's
// first drain, and one is canceled at the first chunk boundary. The
// flag is reset after every run, as Session.FindContext does. Every
// forest and root count must verify, and the clean run after the last
// schedule must be correct.
func TestChaosStressServingWorkspace(t *testing.T) {
	const panicSeed, cancelSeed = 17, 33
	for gi, g := range stressGraphs() {
		wantComps := graph.NumComponents(g)
		p := 2 + gi
		before := runtime.NumGoroutine()
		o := Options{NumProcs: p, Chaos: chaos.New(chaos.DefaultConfig(0, p), nil), pendantTrim: true}
		w, err := newWorkspace(g, o.withDefaults(), true)
		if err != nil {
			t.Fatal(err)
		}
		check := func(label string, parent []graph.VID, st *Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if roots := countRoots(parent); roots != wantComps || st.Roots != wantComps {
				t.Fatalf("%s: %d roots, Stats.Roots %d, want %d", label, roots, st.Roots, wantComps)
			}
		}
		var injections int64
		for seed := uint64(1); seed <= stressSeeds; seed++ {
			label := fmt.Sprintf("g%d seed=%d p=%d", gi, seed, p)
			cfg := chaos.DefaultConfig(seed, p)
			if seed == panicSeed {
				cfg.PanicPoint, cfg.PanicWorker = chaos.PointDrain, 0
			}
			w.t.inj = chaos.New(cfg, nil)
			if seed == cancelSeed {
				var once atomic.Bool
				w.t.o.testHook = func(int) {
					if once.CompareAndSwap(false, true) {
						w.Flag().Trip(fault.CauseCanceled)
					}
				}
			}
			parent, st, err := w.Run(seed)
			injections += w.t.inj.Injections()
			w.t.o.testHook = nil
			w.Flag().Reset()
			switch {
			case seed == cancelSeed:
				if !errors.Is(err, fault.ErrCanceled) || parent != nil {
					t.Fatalf("%s: canceled run: err = %v, parent returned %v", label, err, parent != nil)
				}
			case st.Panic != nil:
				// Worker 0 panics on its first drain unless its teammates
				// finished the graph before it got there.
				ip, ok := st.Panic.Value.(chaos.InjectedPanic)
				if seed != panicSeed || !ok || ip.Worker != 0 || !st.DegradedToSeq {
					t.Fatalf("%s: unexpected panic %v (degraded %v)", label, st.Panic.Value, st.DegradedToSeq)
				}
				check(label+" degraded", parent, st, err)
			default:
				check(label, parent, st, err)
			}
		}
		if injections == 0 {
			t.Fatalf("g%d: chaos injected nothing (layer not wired?)", gi)
		}
		w.t.inj = nil
		parent, st, err := w.Run(stressSeeds + 1)
		check(fmt.Sprintf("g%d clean run", gi), parent, st, err)
		if st.DegradedToSeq {
			t.Fatalf("g%d: clean run degraded", gi)
		}
		w.Close()
		leakcheck.Settle(t, before)
	}
}
