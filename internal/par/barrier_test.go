package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spantree/internal/obs"
)

// TestSenseBarrier checks the fundamental barrier property: no
// participant may enter episode k+1 before every participant has
// finished episode k.
func TestSenseBarrier(t *testing.T) {
	const episodes = 50
	for _, p := range []int{1, 2, 3, 4, 8, 13} {
		b := NewBarrier(p)
		var phase atomic.Int64 // sum of per-participant episode counters
		counts := make([]int64, p)
		var wg sync.WaitGroup
		wg.Add(p)
		errs := make(chan string, p*episodes)
		for tid := 0; tid < p; tid++ {
			go func(tid int) {
				defer wg.Done()
				for e := 0; e < episodes; e++ {
					counts[tid]++
					phase.Add(1)
					b.Wait(tid)
					// After the barrier, every participant must have bumped
					// its counter for this episode: total >= (e+1)*p.
					if got := phase.Load(); got < int64((e+1)*p) {
						errs <- "barrier released early"
						return
					}
					b.Wait(tid) // second barrier so the check itself is safe
				}
			}(tid)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("p=%d: %s", p, e)
		}
		for tid, c := range counts {
			if c != episodes {
				t.Fatalf("p=%d: participant %d completed %d episodes, want %d", p, tid, c, episodes)
			}
		}
	}
}

// TestBarrierEpisodeCounters checks what an observed barrier reports:
// one episode per completed rendezvous and one wait per arrival.
func TestBarrierEpisodeCounters(t *testing.T) {
	rec := obs.New(2)
	b := NewBarrier(2)
	b.Observe(rec)
	var wg sync.WaitGroup
	for tid := 0; tid < 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				b.Wait(tid)
			}
		}(tid)
	}
	wg.Wait()
	snap := rec.Snapshot()
	if snap.BarrierEpisodes != 10 || snap.Totals.BarrierWaits != 20 {
		t.Fatalf("episodes = %d, waits = %d, want 10 and 20",
			snap.BarrierEpisodes, snap.Totals.BarrierWaits)
	}
}

func TestNewBarrierPanicsOnBadP(t *testing.T) {
	for _, p := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewBarrier(%d) accepted", p)
				}
			}()
			NewBarrier(p)
		}()
	}
}

func TestBarrierSingleParticipantNeverBlocks(t *testing.T) {
	rec := obs.New(1)
	b := NewBarrier(1)
	b.Observe(rec)
	for i := 0; i < 1000; i++ {
		b.Wait(0)
	}
	if got := rec.Snapshot().BarrierEpisodes; got != 1000 {
		t.Fatalf("episodes = %d, want 1000", got)
	}
}

// The abort tests keep one subtest per barrier algorithm, named after it;
// the sense-reversing barrier is the only one.

func TestBarrierAbortReleasesParkedWaiters(t *testing.T) {
	const p = 4
	t.Run("sense", func(t *testing.T) {
		b := NewBarrier(p)
		// p-1 waiters park; the last participant aborts instead of
		// arriving. Every parked waiter must return false promptly.
		results := make(chan bool, p-1)
		for tid := 0; tid < p-1; tid++ {
			go func(tid int) { results <- b.WaitAbortable(tid) }(tid)
		}
		time.Sleep(10 * time.Millisecond) // let the waiters park
		b.Abort()
		for i := 0; i < p-1; i++ {
			select {
			case ok := <-results:
				if ok {
					t.Fatal("aborted barrier reported a completed episode")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter still parked after Abort")
			}
		}
	})
}

func TestAbortedBarrierIsSpent(t *testing.T) {
	t.Run("sense", func(t *testing.T) {
		b := NewBarrier(3)
		b.Abort()
		// Late arrivals to a spent barrier must not park.
		done := make(chan bool, 3)
		for tid := 0; tid < 3; tid++ {
			go func(tid int) { done <- b.WaitAbortable(tid) }(tid)
		}
		for i := 0; i < 3; i++ {
			select {
			case ok := <-done:
				if ok {
					t.Fatal("spent barrier completed an episode")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter parked on a spent barrier")
			}
		}
	})
}

func TestBarrierAbortIsIdempotent(t *testing.T) {
	t.Run("sense", func(t *testing.T) {
		b := NewBarrier(2)
		b.Abort()
		b.Abort()
		if b.WaitAbortable(0) {
			t.Fatal("spent barrier completed an episode")
		}
	})
}

func TestWaitAbortableCompletesNormally(t *testing.T) {
	const p = 5
	t.Run("sense", func(t *testing.T) {
		b := NewBarrier(p)
		var wg sync.WaitGroup
		for tid := 0; tid < p; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				for round := 0; round < 50; round++ {
					if !b.WaitAbortable(tid) {
						t.Errorf("un-aborted barrier returned false")
						return
					}
				}
			}(tid)
		}
		wg.Wait()
	})
}
