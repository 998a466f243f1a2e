package wsq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestStealHalfPopBatchBasics(t *testing.T) {
	q := NewStealHalf(4)
	if n, rem := q.PopBatchLen(make([]int32, 8)); n != 0 || rem != 0 {
		t.Fatalf("PopBatchLen on empty queue = %d, %d, want 0, 0", n, rem)
	}
	q.PushBatch([]int32{1, 2, 3, 4, 5})
	if n, rem := q.PopBatchLen(nil); n != 0 || rem != 5 {
		t.Fatalf("PopBatchLen into empty dst = %d, %d, want 0, 5", n, rem)
	}
	dst := make([]int32, 3)
	if n, rem := q.PopBatchLen(dst); n != 3 || rem != 2 || dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("PopBatchLen = %d, %d %v, want 3, 2 [1 2 3]", n, rem, dst)
	}
	if q.Len() != 2 {
		t.Fatalf("Len after partial drain = %d, want 2", q.Len())
	}
	// Larger dst than queue: drains everything, reports the true count.
	dst = make([]int32, 8)
	if n, rem := q.PopBatchLen(dst); n != 2 || rem != 0 || dst[0] != 4 || dst[1] != 5 {
		t.Fatalf("PopBatchLen = %d, %d %v, want 2, 0 [4 5 ...]", n, rem, dst[:2])
	}
	if q.Len() != 0 {
		t.Fatalf("Len after full drain = %d, want 0", q.Len())
	}
}

// TestStealHalfPopBatchStealStress: the chunked owner hot path
// (PopBatchLen drains + PushBatch flushes + single pushes) interleaved with stealing
// thieves must consume every element exactly once. Run under -race this
// is the data-race certificate for the batched operations.
func TestStealHalfPopBatchStealStress(t *testing.T) {
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
	go func() { // owner: pushes all (alternating single and batch), drains chunks
		defer wg.Done()
		chunk := make([]int32, 16)
		batch := make([]int32, 0, 8)
		for i := int32(0); i < n; {
			if i%48 < 8 {
				// Flush a child batch like the traversal's chunk epilogue.
				batch = batch[:0]
				for k := 0; k < 8 && i < n; k++ {
					batch = append(batch, i)
					i++
				}
				q.PushBatch(batch)
			} else {
				q.Push(i)
				i++
			}
			if i%5 == 0 {
				n, rem := q.PopBatchLen(chunk)
				for _, v := range chunk[:n] {
					consume(v)
				}
				// Only thieves race the owner, and they only shrink the
				// queue, so the length read under the drain's lock bounds
				// every later snapshot.
				if l := q.Len(); rem < 0 || l > rem {
					t.Errorf("PopBatchLen remaining %d, later Len %d", rem, l)
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

// TestQuickStealHalfBatchedModel model-checks the batched queue against
// a reference slice queue over random op sequences: PushBatch appends a
// run, PopBatchLen removes a prefix of the requested size and reports
// the length left, Steal removes
// the front half, and the atomic Len mirror stays exact after every
// (sequential) operation.
func TestQuickStealHalfBatchedModel(t *testing.T) {
	f := func(ops []byte) bool {
		q := NewStealHalf(4)
		var ref []int32
		next := int32(0)
		for _, op := range ops {
			switch op % 5 {
			case 0:
				q.Push(next)
				ref = append(ref, next)
				next++
			case 1:
				size := int(op/5)%7 + 1
				batch := make([]int32, size)
				for i := range batch {
					batch[i] = next
					ref = append(ref, next)
					next++
				}
				q.PushBatch(batch)
			case 2:
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
			case 3:
				size := int(op/5)%9 + 1
				dst := make([]int32, size)
				got, rem := q.PopBatchLen(dst)
				want := min(size, len(ref))
				if got != want || rem != len(ref)-want {
					return false
				}
				for i := 0; i < got; i++ {
					if dst[i] != ref[i] {
						return false
					}
				}
				ref = ref[got:]
			case 4:
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
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStealHalfOwnerPath compares the owner's per-vertex locked
// path (one Pop + one Push per element) against the chunked path (one
// PopBatchLen + one PushBatch per 64 elements) on an uncontended queue —
// the isolated cost of the lock traffic the chunked drain amortizes.
func BenchmarkStealHalfOwnerPath(b *testing.B) {
	const chunk = 64
	seedQ := func() *StealHalf {
		q := NewStealHalf(1 << 10)
		for i := int32(0); i < chunk; i++ {
			q.Push(i)
		}
		return q
	}
	b.Run("locked-per-vertex", func(b *testing.B) {
		q := seedQ()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v, _ := q.Pop()
			q.Push(v)
		}
	})
	b.Run("chunked-64", func(b *testing.B) {
		q := seedQ()
		buf := make([]int32, chunk)
		b.ReportAllocs()
		for i := 0; i < b.N; i += chunk {
			n, _ := q.PopBatchLen(buf)
			q.PushBatch(buf[:n])
		}
	})
}
