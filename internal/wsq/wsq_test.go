package wsq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"spantree/internal/xrand"
)

func TestStealHalfFIFO(t *testing.T) {
	q := NewStealHalf(4)
	for i := int32(0); i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := int32(0); i < 100; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty succeeded")
	}
}

func TestStealHalfStealTakesHalfFromFront(t *testing.T) {
	q := NewStealHalf(4)
	for i := int32(0); i < 10; i++ {
		q.Push(i)
	}
	loot := q.Steal(nil)
	if len(loot) != 5 {
		t.Fatalf("stole %d, want 5", len(loot))
	}
	for i, v := range loot {
		if v != int32(i) {
			t.Fatalf("loot[%d] = %d (steals must come from the front)", i, v)
		}
	}
	if q.Len() != 5 {
		t.Fatalf("remaining %d", q.Len())
	}
	// Odd sizes round up.
	q2 := NewStealHalf(4)
	q2.Push(1)
	if loot := q2.Steal(nil); len(loot) != 1 {
		t.Fatalf("stole %d from 1-queue, want 1", len(loot))
	}
	if loot := q2.Steal(nil); len(loot) != 0 {
		t.Fatalf("stole %d from empty, want 0", len(loot))
	}
}

func TestStealHalfPushBatchAndDrain(t *testing.T) {
	q := NewStealHalf(4)
	q.PushBatch([]int32{1, 2, 3})
	q.PushBatch(nil)
	q.PushBatch([]int32{4, 5})
	got := q.Drain(nil)
	want := []int32{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("drained %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v", got)
		}
	}
	if q.Len() != 0 {
		t.Fatal("drain left elements")
	}
}

func TestStealHalfGrowthAndCompaction(t *testing.T) {
	q := NewStealHalf(16)
	// Interleave pushes and pops to force head/tail wrapping and
	// compaction paths.
	next, expect := int32(0), int32(0)
	r := xrand.New(1)
	for step := 0; step < 10000; step++ {
		if r.Bool() || q.Len() == 0 {
			q.Push(next)
			next++
		} else {
			v, ok := q.Pop()
			if !ok || v != expect {
				t.Fatalf("step %d: got %d ok=%v want %d", step, v, ok, expect)
			}
			expect++
		}
	}
	for expect < next {
		v, ok := q.Pop()
		if !ok || v != expect {
			t.Fatalf("tail drain: got %d ok=%v want %d", v, ok, expect)
		}
		expect++
	}
}

// TestStealHalfConservation: under concurrent owner pops and thief
// steals, every pushed element is consumed exactly once.
func TestStealHalfConservation(t *testing.T) {
	const n = 200000
	const thieves = 4
	q := NewStealHalf(64)
	var consumed sync.Map
	var total atomic.Int64

	consume := func(v int32) {
		if _, dup := consumed.LoadOrStore(v, true); dup {
			t.Errorf("element %d consumed twice", v)
		}
		total.Add(1)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1 + thieves)
	go func() { // owner: pushes all, pops some
		defer wg.Done()
		for i := int32(0); i < n; i++ {
			q.Push(i)
			if i%3 == 0 {
				if v, ok := q.Pop(); ok {
					consume(v)
				}
			}
		}
	}()
	for th := 0; th < thieves; th++ {
		go func() {
			defer wg.Done()
			var buf []int32
			for !stop.Load() {
				buf = q.Steal(buf[:0])
				for _, v := range buf {
					consume(v)
				}
			}
		}()
	}
	// Everything pushed is consumed exactly once; wait for the count,
	// then stop the thieves.
	for total.Load() < n {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if total.Load() != n {
		t.Fatalf("consumed %d, want %d", total.Load(), n)
	}
	if q.Len() != 0 {
		t.Fatalf("queue still holds %d elements", q.Len())
	}
}

func TestStealHalfLenRace(t *testing.T) {
	// Len is advertised as a racy snapshot; exercise it while the queue
	// churns to let the race detector confirm it is nevertheless safe.
	q := NewStealHalf(16)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := int32(0); i < 50000; i++ {
			q.Push(i)
			q.Pop()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50000; i++ {
			_ = q.Len()
		}
	}()
	wg.Wait()
}

func TestStealAppendsToProvidedSlice(t *testing.T) {
	q := NewStealHalf(4)
	q.PushBatch([]int32{7, 8, 9, 10})
	base := []int32{1, 2}
	out := q.Steal(base)
	if len(out) != 4 || out[0] != 1 || out[1] != 2 || out[2] != 7 || out[3] != 8 {
		t.Fatalf("Steal append semantics wrong: %v", out)
	}
}

func TestQuickStealHalfSequential(t *testing.T) {
	// Property: any interleaving of push/pop/steal on a single goroutine
	// behaves like a FIFO queue where steal removes a prefix.
	f := func(ops []byte) bool {
		q := NewStealHalf(4)
		var ref []int32
		next := int32(0)
		for _, op := range ops {
			switch op % 3 {
			case 0:
				q.Push(next)
				ref = append(ref, next)
				next++
			case 1:
				v, ok := q.Pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if v != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			case 2:
				loot := q.Steal(nil)
				want := (len(ref) + 1) / 2
				if len(ref) == 0 {
					want = 0
				}
				if len(loot) != want {
					return false
				}
				for i, v := range loot {
					if v != ref[i] {
						return false
					}
				}
				ref = ref[len(loot):]
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHighWaterOptIn(t *testing.T) {
	// Off by default: pushes are not charged for the accounting.
	q := NewStealHalf(16)
	for i := 0; i < 40; i++ {
		q.Push(int32(i))
	}
	if hw := q.HighWater(); hw != 0 {
		t.Errorf("untracked StealHalf high-water = %d, want 0", hw)
	}

	q = NewStealHalf(16)
	q.TrackHighWater(true)
	for i := 0; i < 40; i++ {
		q.Push(int32(i))
	}
	for i := 0; i < 10; i++ {
		q.Pop()
	}
	q.PushBatch([]int32{1, 2, 3})
	if hw := q.HighWater(); hw != 40 {
		t.Errorf("StealHalf high-water = %d, want 40", hw)
	}

}
