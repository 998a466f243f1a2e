//go:build chaos

package par

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spantree/internal/chaos"
	"spantree/internal/fault"
	"spantree/internal/leakcheck"
	"spantree/internal/smpmodel"
)

// The ForDynamic chaos stress suite: >= 50 seeded schedules against the
// work-stealing sweep, proving termination and exactly-once delivery of
// every index under stalls and vetoed steals.

func TestChaosStressForDynamic(t *testing.T) {
	const n = 20000
	for seed := uint64(1); seed <= 50; seed++ {
		p := 2 + int(seed%7)
		inj := chaos.New(chaos.DefaultConfig(seed, p), nil)
		team := NewTeam(p, nil).Chaos(inj)
		hits := make([]atomic.Int32, n)
		done := make(chan error, 1)
		go func() {
			done <- team.RunErr(func(c *Ctx) {
				c.ForDynamic(n, func(i int) { hits[i].Add(1) })
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("seed=%d p=%d: %v", seed, p, err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatalf("seed=%d p=%d: ForDynamic did not terminate under chaos", seed, p)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("seed=%d p=%d: index %d delivered %d times, want exactly once", seed, p, i, got)
			}
		}
		if inj.Injections() == 0 {
			t.Fatalf("seed=%d p=%d: chaos injected nothing", seed, p)
		}
	}
}

// TestChaosForDynamicModeled drives the deterministic modeled path (the
// one the cost-model runs use) under the same seeds: chunk claiming off
// the shared cursor must stay exactly-once under stalls too.
func TestChaosForDynamicModeled(t *testing.T) {
	const n = 8000
	for seed := uint64(1); seed <= 50; seed++ {
		p := 2 + int(seed%5)
		inj := chaos.New(chaos.DefaultConfig(seed, p), nil)
		team := NewTeam(p, smpmodel.New(p)).Chaos(inj)
		hits := make([]atomic.Int32, n)
		if err := team.RunErr(func(c *Ctx) {
			c.ForDynamic(n, func(i int) { hits[i].Add(1) })
		}); err != nil {
			t.Fatalf("seed=%d p=%d: %v", seed, p, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("seed=%d p=%d: index %d delivered %d times, want exactly once", seed, p, i, got)
			}
		}
	}
}

// TestChaosInjectedPanicSurfacesAsPanicError aims an InjectedPanic into
// a ForDynamic sweep and checks RunErr's isolation contract: the team
// drains (no goroutine leaked, no deadlock at the barrier) and the
// structured PanicError comes back as the error.
func TestChaosInjectedPanicSurfacesAsPanicError(t *testing.T) {
	const n = 10000
	for _, pt := range []chaos.Point{chaos.PointDrain, chaos.PointSteal} {
		const p = 4
		inj := chaos.New(chaos.Config{
			Seed: 7, Workers: p,
			PanicPoint: pt, PanicWorker: 1, PanicAfter: 1,
		}, nil)
		team := NewTeam(p, nil).Chaos(inj)
		before := runtime.NumGoroutine()
		err := team.RunErr(func(c *Ctx) {
			for round := 0; round < 50; round++ {
				c.ForDynamic(n, func(i int) {})
				c.Barrier()
			}
		})
		var pe *fault.PanicError
		if !errors.As(err, &pe) {
			// The steal point requires a worker to actually run dry; with
			// this much work every worker steals, but stay honest if not.
			if pt == chaos.PointSteal && err == nil {
				continue
			}
			t.Fatalf("point=%v: err = %v, want *fault.PanicError", pt, err)
		}
		ip, ok := pe.Value.(chaos.InjectedPanic)
		if !ok || ip.Worker != 1 || ip.Point != pt {
			t.Fatalf("point=%v: panic value %v, want aimed InjectedPanic", pt, pe.Value)
		}
		leakcheck.Settle(t, before)
	}
}

// TestChaosCancellationUnderPerturbation trips the team flag from one
// worker mid-sweep under seeded chaos: RunErr must return ErrCanceled
// with every teammate drained.
func TestChaosCancellationUnderPerturbation(t *testing.T) {
	const n = 50000
	for seed := uint64(1); seed <= 10; seed++ {
		p := 2 + int(seed%4)
		inj := chaos.New(chaos.DefaultConfig(seed, p), nil)
		flag := &fault.Flag{}
		team := NewTeam(p, nil).Chaos(inj).Cancel(flag)
		before := runtime.NumGoroutine()
		var did atomic.Int64
		err := team.RunErr(func(c *Ctx) {
			c.ForDynamic(n, func(i int) {
				if did.Add(1) == int64(n/10) {
					flag.Trip(fault.CauseCanceled)
				}
			})
			c.Barrier()
		})
		if !errors.Is(err, fault.ErrCanceled) {
			t.Fatalf("seed=%d p=%d: err = %v, want ErrCanceled", seed, p, err)
		}
		leakcheck.Settle(t, before)
	}
}
