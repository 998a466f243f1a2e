// Package wsq provides the work-stealing queues used by the traversal
// step of the spanning-tree algorithm.
//
// The paper's load-balancing protocol is steal-half: "whenever any
// processor finishes with its own work ... it randomly checks other
// processors' queues. If it finds a non-empty queue, the processor
// steals part of the queue." StealHalf implements exactly that: a FIFO
// ring buffer (the BFS queue of Algorithm 1) whose owner pushes at the
// back and pops at the front, and whose thieves remove half the queue in
// one locked operation. The owner's hot path is chunked — PopBatchLen
// drains up to a chunk per lock acquisition and PushBatch appends a
// whole batch of children per lock acquisition — so the per-vertex
// mutex traffic of a naive port amortizes to ~2 lock operations per
// chunk.
package wsq

import (
	"sync"
	"sync/atomic"
)

// StealHalf is a FIFO queue with bulk stealing. All operations are
// guarded by a mutex: the owner's push/pop path is uncontended in the
// common case, and thieves appear only when idle, which matches the
// paper's "lightweight work stealing protocol".
type StealHalf struct {
	mu   sync.Mutex
	buf  []int32
	head int // index of front element
	tail int // index one past back element
	// size == tail-head under mu; a separate atomic mirror lets idle
	// processors scan for victims without taking every lock.
	size atomic.Int64
	// high is the maximum live length the queue ever reached (under mu),
	// the per-worker queue_high_water metric of the observability layer.
	// Maintained only when track is set: the live-length check costs a
	// few percent of traversal time, so it is pay-for-what-you-ask.
	high  int
	track bool
}

// TrackHighWater enables high-water accounting. Call before first use;
// with it off (the default) HighWater reports 0.
func (q *StealHalf) TrackHighWater(on bool) { q.track = on }

// NewStealHalf returns an empty queue with the given initial capacity
// (minimum 16).
func NewStealHalf(capacity int) *StealHalf {
	if capacity < 16 {
		capacity = 16
	}
	return &StealHalf{buf: make([]int32, capacity)}
}

// Len returns the current queue length (racy snapshot, suitable for
// victim selection).
func (q *StealHalf) Len() int { return int(q.size.Load()) }

// Reset empties the queue while retaining its grown buffer, rearming it
// for a new run on a pooled workspace (the capacity a session
// provisioned — or a previous run grew — is the asset being reused).
// The caller must guarantee no owner or thief of a previous run still
// touches the queue.
func (q *StealHalf) Reset() {
	q.mu.Lock()
	q.head, q.tail = 0, 0
	q.high = 0
	q.size.Store(0)
	q.mu.Unlock()
}

// Cap returns the current buffer capacity (for provisioning checks).
func (q *StealHalf) Cap() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Push appends v at the back of the queue.
func (q *StealHalf) Push(v int32) {
	q.mu.Lock()
	if q.tail == len(q.buf) {
		q.compactOrGrow(1)
	}
	q.buf[q.tail] = v
	q.tail++
	q.size.Add(1)
	if q.track {
		if live := q.tail - q.head; live > q.high {
			q.high = live
		}
	}
	q.mu.Unlock()
}

// PushBatch appends all of vs at the back of the queue.
func (q *StealHalf) PushBatch(vs []int32) {
	if len(vs) == 0 {
		return
	}
	q.mu.Lock()
	if q.tail+len(vs) > len(q.buf) {
		q.compactOrGrow(len(vs))
	}
	copy(q.buf[q.tail:], vs)
	q.tail += len(vs)
	q.size.Add(int64(len(vs)))
	if q.track {
		if live := q.tail - q.head; live > q.high {
			q.high = live
		}
	}
	q.mu.Unlock()
}

// compactOrGrow (with mu held) makes room for extra more elements by
// sliding live elements to the front, doubling the buffer when more
// than half is live.
func (q *StealHalf) compactOrGrow(extra int) {
	live := q.tail - q.head
	need := live + extra
	if need > len(q.buf)/2 {
		newCap := len(q.buf) * 2
		for newCap < need {
			newCap *= 2
		}
		nb := make([]int32, newCap)
		copy(nb, q.buf[q.head:q.tail])
		q.buf = nb
	} else {
		copy(q.buf, q.buf[q.head:q.tail])
	}
	q.head, q.tail = 0, live
}

// HighWater returns the maximum length the queue ever reached.
func (q *StealHalf) HighWater() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.high
}

// PopBatchLen removes up to len(dst) elements from the front of the
// queue in one locked operation, copying them into dst, and returns the
// count (0 when the queue is empty or dst is empty) plus the post-drain
// queue length read under the same lock acquisition. This is the
// owner's chunked drain: one lock acquisition amortizes over the whole
// chunk, and the atomic size mirror is updated once, so Len stays exact
// at chunk boundaries. Elements moved into dst are no longer visible to
// thieves, exactly as if the owner had popped them one by one. The
// traversal decides from the remaining depth whether to wake an idle
// thief, and this gives it exactly, without a second synchronized probe
// of the size mirror.
func (q *StealHalf) PopBatchLen(dst []int32) (n, remaining int) {
	if len(dst) == 0 {
		return 0, q.Len()
	}
	q.mu.Lock()
	n = q.tail - q.head
	if n == 0 {
		q.mu.Unlock()
		return 0, 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	copy(dst, q.buf[q.head:q.head+n])
	q.head += n
	q.size.Add(-int64(n))
	remaining = q.tail - q.head
	q.mu.Unlock()
	return n, remaining
}

// Pop removes and returns the front element, or ok == false when empty.
func (q *StealHalf) Pop() (v int32, ok bool) {
	q.mu.Lock()
	if q.head == q.tail {
		q.mu.Unlock()
		return 0, false
	}
	v = q.buf[q.head]
	q.head++
	q.size.Add(-1)
	q.mu.Unlock()
	return v, true
}

// Steal removes ceil(len/2) elements from the front of the queue in one
// operation, appending them to into and returning the extended slice.
// It returns into unchanged when the queue is empty.
func (q *StealHalf) Steal(into []int32) []int32 {
	q.mu.Lock()
	live := q.tail - q.head
	if live == 0 {
		q.mu.Unlock()
		return into
	}
	take := (live + 1) / 2
	into = append(into, q.buf[q.head:q.head+take]...)
	q.head += take
	q.size.Add(-int64(take))
	q.mu.Unlock()
	return into
}

// Drain removes every element, appending to into.
func (q *StealHalf) Drain(into []int32) []int32 {
	q.mu.Lock()
	into = append(into, q.buf[q.head:q.tail]...)
	q.size.Add(-int64(q.tail - q.head))
	q.head, q.tail = 0, 0
	q.mu.Unlock()
	return into
}
