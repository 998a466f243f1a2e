package spantree

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/leakcheck"
)

// sessionFamilies are the graph families the pooled-vs-fresh equality
// tests sweep: regular mesh, scale-free-ish random, high-diameter chain
// with a tail of singletons (disconnected), and a star (max-degree hub).
func sessionFamilies() map[string]*Graph {
	return map[string]*Graph{
		"torus":        gen.Torus2D(24, 24),
		"random":       gen.RandomConnected(500, 1200, 7),
		"disconnected": graph.Union(gen.Chain(300), gen.Star(50), gen.Cycle(17)),
		"star":         gen.Star(400),
		"leafy":        gen.Random(600, 900, 3),
	}
}

// TestSessionMatchesFind pins the pooled public API to the one-shot
// path across graph families. At p=1 both are deterministic: the forest
// is identical to a one-shot run that pre-claims the same pendant trees
// (findTrimmed), and the root and tree-edge counts equal Find's. At p=4
// the forests are valid with equal root counts.
func TestSessionMatchesFind(t *testing.T) {
	for name, g := range sessionFamilies() {
		found, err := Find(g, Options{NumProcs: 1, Seed: 11})
		if err != nil {
			t.Fatalf("%s: Find: %v", name, err)
		}
		fresh, err := findTrimmed(g, 11)
		if err != nil {
			t.Fatalf("%s: trimmed one-shot: %v", name, err)
		}
		if fresh.Roots != found.Roots || fresh.TreeEdges != found.TreeEdges {
			t.Fatalf("%s: trimmed one-shot roots/edges %d/%d, Find got %d/%d",
				name, fresh.Roots, fresh.TreeEdges, found.Roots, found.TreeEdges)
		}
		s, err := NewSession(g, SessionOptions{NumProcs: 1})
		if err != nil {
			t.Fatalf("%s: NewSession: %v", name, err)
		}
		for run := 0; run < 3; run++ {
			res, err := s.Find(11)
			if err != nil {
				t.Fatalf("%s run %d: %v", name, run, err)
			}
			for v := range fresh.Parent {
				if res.Parent[v] != fresh.Parent[v] {
					t.Fatalf("%s run %d: parent[%d] = %d, trimmed one-shot got %d",
						name, run, v, res.Parent[v], fresh.Parent[v])
				}
			}
			if res.Roots != fresh.Roots || res.TreeEdges != fresh.TreeEdges ||
				res.WorkStealing.Pendant != fresh.WorkStealing.Pendant {
				t.Fatalf("%s run %d: roots/edges/pendant %d/%d/%d, trimmed one-shot got %d/%d/%d",
					name, run, res.Roots, res.TreeEdges, res.WorkStealing.Pendant,
					fresh.Roots, fresh.TreeEdges, fresh.WorkStealing.Pendant)
			}
		}
		s.Close()

		s4, err := NewSession(g, SessionOptions{NumProcs: 4})
		if err != nil {
			t.Fatalf("%s: NewSession p=4: %v", name, err)
		}
		wantRoots := graph.NumComponents(g)
		for run := 0; run < 3; run++ {
			res, err := s4.Find(uint64(run) + 100)
			if err != nil {
				t.Fatalf("%s p=4 run %d: %v", name, run, err)
			}
			if err := Verify(g, res.Parent); err != nil {
				t.Fatalf("%s p=4 run %d: %v", name, run, err)
			}
			if res.Roots != wantRoots {
				t.Fatalf("%s p=4 run %d: %d roots, want %d", name, run, res.Roots, wantRoots)
			}
		}
		s4.Close()
	}
}

// TestSessionZeroAlloc is the headline serving guarantee: a warmed
// session executes FindContext with zero steady-state heap allocations.
// context.Background is the alloc-free path — a cancellable context
// additionally pays for its fault watcher. The many-component random
// graph keeps the quiescence sweep on the pinned path.
func TestSessionZeroAlloc(t *testing.T) {
	checkSessionZeroAlloc(t, "torus", gen.Torus2D(32, 32))
	checkSessionZeroAlloc(t, "components", gen.Random(4096, 3072, 1))
}

// TestSessionZeroAllocCompactBottomUp extends the zero-allocation
// guarantee to a dense low-diameter graph whose frontier balloons: the
// queues and the compact mirror are provisioned at construction, so a
// warmed session must still run allocation-free. (The name dates from
// when a bottom-up phase engaged on this input and the compact layout
// was optional.)
func TestSessionZeroAllocCompactBottomUp(t *testing.T) {
	checkSessionZeroAlloc(t, "dense", gen.Random(1<<14, 12<<14, 7))
}

// checkSessionZeroAlloc asserts that warmed sessions on g, at one and at
// four workers, execute FindContext with zero heap allocations.
func checkSessionZeroAlloc(t *testing.T, name string, g *Graph) {
	t.Helper()
	for _, p := range []int{1, 4} {
		s, err := NewSession(g, SessionOptions{NumProcs: p})
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := s.FindContext(context.Background(), 42); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%s p=%d: AllocsPerRun = %v, want 0", name, p, avg)
		}
		s.Close()
	}
}

// TestSessionCancelThenReuse: typed errors for expired and canceled
// contexts, and a clean completion right after, whose counted root
// number is not disturbed by the abandoned runs.
func TestSessionCancelThenReuse(t *testing.T) {
	g := gen.RandomConnected(400, 900, 3)
	s, err := NewSession(g, SessionOptions{NumProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := s.FindContext(expired, 1); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired ctx: err = %v, want ErrDeadline", err)
	}

	canceled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := s.FindContext(canceled, 2); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ctx: err = %v, want ErrCanceled", err)
	}

	res, err := s.FindContext(context.Background(), 3)
	if err != nil {
		t.Fatalf("after cancels: %v", err)
	}
	if err := Verify(g, res.Parent); err != nil {
		t.Fatalf("after cancels: %v", err)
	}
	if res.Roots != 1 {
		t.Fatalf("after cancels: %d roots, want 1", res.Roots)
	}
}

// TestSessionPoolGoroutinesFlat: the pool's parked teams are created
// once — a pool of 3 sessions at p = 2 holds its 6 workers and nothing
// more, with or without a stall budget, and the count does not grow
// with the request count — and pool Close releases every team.
func TestSessionPoolGoroutinesFlat(t *testing.T) {
	g := gen.Torus2D(16, 16)
	for _, budget := range []time.Duration{0, time.Minute} {
		before := runtime.NumGoroutine()
		pool, err := NewSessionPool(g, SessionOptions{NumProcs: 2, StallBudget: budget}, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Earlier tests' goroutines may still be exiting, so the check is
		// "at most the workers": their 6 cannot have exited.
		leakcheck.Settle(t, before+6)
		for i := 0; i < 60; i++ {
			s, err := pool.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Find(uint64(i)); err != nil {
				t.Fatal(err)
			}
			pool.Release(s)
		}
		leakcheck.Settle(t, before+6)
		pool.Close()
		leakcheck.Settle(t, before)
		if _, err := pool.Acquire(context.Background()); !errors.Is(err, ErrSessionClosed) {
			t.Fatalf("budget %v: Acquire after Close: err = %v, want ErrSessionClosed", budget, err)
		}
	}
}

// TestSessionPoolConcurrent hammers the pool from many goroutines (run
// under -race in CI): every request gets a session to itself, forests
// stay valid, TryAcquire never hands out a session twice.
func TestSessionPoolConcurrent(t *testing.T) {
	g := gen.RandomConnected(300, 700, 9)
	pool, err := NewSessionPool(g, SessionOptions{NumProcs: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				s, err := pool.Acquire(context.Background())
				if err != nil {
					errCh <- err
					return
				}
				res, err := s.Find(uint64(w*100 + i))
				if err == nil {
					err = Verify(g, res.Parent)
				}
				pool.Release(s)
				if err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSessionPoolTryAcquireExhaustion: TryAcquire reports exhaustion
// instead of blocking — the serving layer's admission signal.
func TestSessionPoolTryAcquireExhaustion(t *testing.T) {
	pool, err := NewSessionPool(gen.Chain(50), SessionOptions{NumProcs: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	a, ok := pool.TryAcquire()
	if !ok {
		t.Fatal("first TryAcquire failed")
	}
	b, ok := pool.TryAcquire()
	if !ok {
		t.Fatal("second TryAcquire failed")
	}
	if _, ok := pool.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded on an exhausted pool")
	}
	pool.Release(a)
	if _, err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	pool.Release(b)
}
