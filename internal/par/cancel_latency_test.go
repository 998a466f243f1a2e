package par

import (
	"errors"
	"sync/atomic"
	"testing"

	"spantree/internal/fault"
	"spantree/internal/smpmodel"
)

// TestForDynamicCancellationLatencyBound pins the documented polling
// cadence: the flag is checked once per drain chunk, so after a trip
// each worker finishes at most the chunk it already claimed — at most
// p*chunk body calls run after the flag is visible. The body trips the flag on the first item and counts every
// call; the overshoot past the snapshot taken right after the trip must
// stay within the bound.
func TestForDynamicCancellationLatencyBound(t *testing.T) {
	const (
		n     = 1_000_000
		chunk = 64
		p     = 4
	)
	flag := &fault.Flag{}
	team := NewTeam(p, nil).withChunk(chunk).Cancel(flag)
	var done, atTrip atomic.Int64
	err := team.RunErr(func(c *Ctx) {
		c.ForDynamic(n, func(i int) {
			if i == 0 {
				flag.Trip(fault.CauseCanceled)
				atTrip.Store(done.Load())
			}
			done.Add(1)
		})
	})
	if !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	total, snap := done.Load(), atTrip.Load()
	// Items executed after the snapshot are a subset of the items
	// executed after the trip, and those are bounded by one in-flight
	// chunk per worker.
	if total-snap > p*chunk {
		t.Fatalf("%d items ran after the trip, bound is p*chunk = %d", total-snap, p*chunk)
	}
	if total == n {
		t.Fatal("sweep ran to completion; the trip canceled nothing")
	}
}

// TestForDynamicModeledCancellationLatency drives the same bound on the
// deterministic modeled path (static blocks, same per-chunk poll).
func TestForDynamicModeledCancellationLatency(t *testing.T) {
	const (
		n     = 400_000
		chunk = 64
		p     = 4
	)
	flag := &fault.Flag{}
	team := NewTeam(p, smpmodel.New(p)).withChunk(chunk).Cancel(flag)
	var done, atTrip atomic.Int64
	err := team.RunErr(func(c *Ctx) {
		c.ForDynamic(n, func(i int) {
			if i == 0 {
				flag.Trip(fault.CauseCanceled)
				atTrip.Store(done.Load())
			}
			done.Add(1)
		})
	})
	if !errors.Is(err, fault.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if total, snap := done.Load(), atTrip.Load(); total-snap > p*chunk {
		t.Fatalf("%d items ran after the trip, bound is p*chunk = %d", total-snap, p*chunk)
	}
}
