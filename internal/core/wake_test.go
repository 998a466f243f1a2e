package core

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/obs"
)

// The wake tests raise the park timeout to a minute, so a parked worker
// comes back within the test deadline only if an event woke it. A
// missing wake then fails the deadline instead of passing slowly.
const (
	wakeParkTimeout = time.Minute
	wakeDeadline    = 20 * time.Second
)

// parkedTeam builds a p-worker team over g whose parks last a minute.
func parkedTeam(t *testing.T, g *graph.Graph, p int) *traversal {
	t.Helper()
	tr, err := newTeam(g, Options{NumProcs: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.parkTimeout = wakeParkTimeout
	return tr
}

// goWorker starts worker tid's loop on its own goroutine.
func goWorker(tr *traversal, tid int, wg *sync.WaitGroup) {
	ws := newWorkerState(tr.o.ChunkSize, 0)
	tr.resetWorkerState(tid, &ws)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tr.workerLoop(tid, &ws)
	}()
}

// waitParked blocks until n goroutines sit in park's select, read from
// the goroutine dump rather than guessed from a sleep.
func waitParked(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(wakeDeadline)
	buf := make([]byte, 1<<20)
	for {
		dump := string(buf[:runtime.Stack(buf, true)])
		parked := 0
		for _, g := range strings.Split(dump, "\n\n") {
			if strings.Contains(g, "[select") && strings.Contains(g, "(*traversal).park(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers parked by the deadline:\n%s", parked, n, dump)
		}
		runtime.Gosched()
	}
}

// waitFor polls cond until it holds and reports an empty string, or
// gives up at the deadline and reports what it waited for plus every
// goroutine's stack. It never fails the test itself, so worker-side
// hooks can call it too.
func waitFor(what string, cond func() bool) string {
	deadline := time.Now().Add(wakeDeadline)
	for !cond() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return "no " + what + " by the deadline:\n" + string(buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
	return ""
}

// joinWorkers waits for the team's goroutines to exit.
func joinWorkers(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if msg := waitFor("worker exit", func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}); msg != "" {
		t.Fatal(msg)
	}
}

// TestParkedWorkerWakesOnCompletion: on a chain walked from one end the
// owner's queue never holds two vertices, so the idle teammate parks and
// nothing is ever stealable. Only the flush that brings visited to n
// can wake it before its minute is up.
func TestParkedWorkerWakesOnCompletion(t *testing.T) {
	g := gen.Chain(4096)
	tr := parkedTeam(t, g, 2)
	tr.claimSeq(0, graph.None)
	tr.queues[0].Push(0)
	var wg sync.WaitGroup
	goWorker(tr, 1, &wg)
	waitParked(t, 1)
	goWorker(tr, 0, &wg)
	joinWorkers(t, &wg)
	if got := tr.visited.Load(); got != int64(g.NumVertices()) {
		t.Fatalf("visited = %d, want %d", got, g.NumVertices())
	}
	if got := tr.rec.Total(obs.StealSuccesses); got != 0 {
		t.Fatalf("%d steals on a one-ended chain, want 0", got)
	}
}

// TestParkedWorkerWakesOnSweepSpill: with no seeds at all, the second
// worker to go idle finds the first parked and runs the quiescence
// sweep. The sweep covers the small components privately and spills
// the torus frontier onto its own queue; the hook then holds the leader
// until the parked teammate has stolen from it, which only the spill's
// wake can make happen in time.
func TestParkedWorkerWakesOnSweepSpill(t *testing.T) {
	g := sweepGraph()
	tr := parkedTeam(t, g, 2)
	held := false // touched only by worker 0
	tr.o.testHook = func(tid int) {
		if tid != 0 || held || tr.queues[0].Len() < sweepChunk {
			return
		}
		held = true
		if msg := waitFor("steal from the spilled frontier", func() bool {
			return tr.rec.Total(obs.StealSuccesses) > 0
		}); msg != "" {
			t.Error(msg)
		}
	}
	var wg sync.WaitGroup
	goWorker(tr, 1, &wg)
	waitParked(t, 1)
	goWorker(tr, 0, &wg)
	joinWorkers(t, &wg)
	if !held {
		t.Fatal("the sweep never spilled the torus frontier")
	}
	checkForest(t, "sweep spill", g, tr.parent)
}

// TestParkedWorkerWakesOnStealablePush: the owner's single seed is below
// the steal threshold, so the teammate parks. The owner's first drain
// pushes the torus vertex's four children; the hook then holds the
// owner until the parked teammate has stolen them, which only the
// push's wake can make happen in time.
func TestParkedWorkerWakesOnStealablePush(t *testing.T) {
	g := gen.Torus2D(32, 32)
	tr := parkedTeam(t, g, 2)
	tr.claimSeq(0, graph.None)
	tr.queues[0].Push(0)
	calls := 0 // touched only by worker 0
	tr.o.testHook = func(tid int) {
		if tid != 0 {
			return
		}
		if calls++; calls == 2 { // the first call precedes the first drain
			if msg := waitFor("steal after a stealable push", func() bool {
				return tr.rec.Total(obs.StealSuccesses) > 0
			}); msg != "" {
				t.Error(msg)
			}
		}
	}
	var wg sync.WaitGroup
	goWorker(tr, 1, &wg)
	waitParked(t, 1)
	goWorker(tr, 0, &wg)
	joinWorkers(t, &wg)
	checkForest(t, "stealable push", g, tr.parent)
}
