// Package obs is the unified observability layer of the repository: one
// low-overhead recorder that every parallel component (the work-stealing
// traversal in internal/core, the queues in internal/wsq, the barrier
// and the SV family via internal/par) reports into, and
// one stable JSON schema (Report) that every tool emits, so each
// benchmark run produces a comparable per-worker metrics artifact.
//
// The design follows the paper's evaluation needs: the argument for the
// work-stealing algorithm is made in per-processor terms (load balance,
// steal traffic, barrier episodes, the Helman-JáJá (T_M, T_C, B)
// triplet), so the recorder keeps one cache-line padded slot of counters
// per worker and aggregates them only at snapshot time — there is no
// shared hot counter and therefore no coherence traffic between workers.
//
// # Concurrency contract
//
// Counter slots are single-writer: worker tid is the only goroutine that
// may update Worker(tid)'s counters while the run is in flight (the
// owner updates them with atomic load/store pairs, which is exactly as
// cheap as a plain add on amd64/arm64 but keeps concurrent Snapshot
// calls race-free). Snapshot may be called from any goroutine at any
// time and sees a consistent-enough view for monitoring; the final
// snapshot taken after the worker goroutines join is exact.
//
// All methods are nil-safe on both *Recorder and *Worker: a nil receiver
// is a no-op sink, so instrumented code needs no "is observability on?"
// branches beyond the receiver nil-check the calls themselves perform.
package obs

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one per-worker counter.
type Counter int

// The per-worker counter set. VerticesClaimed/EdgesScanned measure
// useful work (and therefore load balance), the three steal counters
// measure the work-stealing protocol, QueueHighWater bounds queue memory
// and reveals frontier shape, BarrierWaits and IdleTransitions count
// synchronization episodes, and FallbackTriggers/SeededComponents count
// the two quiescence-protocol outcomes.
const (
	// VerticesClaimed is the number of vertices this worker claimed
	// (colored); for SV-family algorithms it counts grafts won.
	VerticesClaimed Counter = iota
	// EdgesScanned is the number of arcs this worker inspected.
	EdgesScanned
	// StealAttempts counts entries into the steal protocol (one full
	// victim scan per attempt).
	StealAttempts
	// StealSuccesses counts attempts that obtained at least one vertex.
	StealSuccesses
	// StealFailures counts attempts that found nothing stealable.
	StealFailures
	// StolenVertices is the total number of vertices obtained by steals.
	StolenVertices
	// FailedClaims counts claim CASes lost to another worker — the
	// paper's multiply-colored-vertex race events.
	FailedClaims
	// QueueHighWater is the maximum length this worker's queue reached.
	QueueHighWater
	// BarrierWaits counts barrier episodes this worker participated in.
	BarrierWaits
	// IdleTransitions counts busy-to-idle transitions (the worker ran
	// out of local work and entered the steal/sleep protocol).
	IdleTransitions
	// FallbackTriggers counts times this worker tripped the idle
	// detection threshold and aborted the traversal into the SV fallback.
	FallbackTriggers
	// SeededComponents counts components this worker seeded through the
	// quiescence protocol.
	SeededComponents
	// ChunkDrains counts owner-side chunked queue drains that obtained at
	// least one vertex (one locked PopBatchLen each).
	ChunkDrains
	// DrainedVertices is the total vertices those drains obtained;
	// DrainedVertices/ChunkDrains is the mean effective drain chunk.
	DrainedVertices
	// DrainHist0..DrainHist7 are the log2 histogram of effective drain
	// sizes: bucket i counts drains that obtained [2^i, 2^(i+1)) vertices,
	// with the last bucket open-ended (>= 128). Use DrainHistBucket to map
	// a drain size to its bucket.
	DrainHist0
	DrainHist1
	DrainHist2
	DrainHist3
	DrainHist4
	DrainHist5
	DrainHist6
	DrainHist7

	// Cancels counts cooperative-abort observations: this worker saw the
	// run's cancel flag tripped at a chunk boundary and drained.
	Cancels
	// PanicsRecovered counts panics this worker's isolation wrapper
	// recovered (the run then degrades or returns a PanicError).
	PanicsRecovered
	// ChaosInjections counts faults the chaos layer injected into this
	// worker (stalls, steal vetoes, panics); always 0 in default builds.
	ChaosInjections

	// HooksWon counts CAS-hook elections this worker won in the
	// edge-centric union-find sweep — each win selects one tree edge.
	HooksWon
	// HooksLost counts hook CASes lost to another worker (the edge
	// retried against the re-found roots).
	HooksLost
	// UFFinds counts union-find root lookups (two per inspected arc with
	// distinct endpoints, plus retries).
	UFFinds
	// CompressionWrites counts parent rewrites performed by path
	// compression during those finds.
	CompressionWrites

	// StallTrips counts runs the stuck-run watchdog aborted (recorded by
	// the coordinator slot when a run ends with fault.CauseStalled). It
	// was added with the serving-grade hardening and stays 0 for runs
	// that never stall.
	StallTrips

	numCounters
)

// DrainHistBuckets is the number of effective-drain-size histogram
// buckets (log2, last bucket open-ended).
const DrainHistBuckets = int(DrainHist7-DrainHist0) + 1

// DrainHistBucket returns the histogram counter for a drain that
// obtained n vertices (n >= 1).
func DrainHistBucket(n int) Counter {
	b := Counter(0)
	for n > 1 && b < DrainHist7-DrainHist0 {
		n >>= 1
		b++
	}
	return DrainHist0 + b
}

// EventKind identifies one trace event type.
type EventKind uint8

const (
	// EvSeed: a stub-tree vertex was distributed to a worker queue
	// (A = vertex, B = destination worker).
	EvSeed EventKind = iota
	// EvSteal: a successful steal (A = victim worker, B = vertices moved).
	EvSteal
	// EvBarrier: a barrier episode completed (A = episode number).
	EvBarrier
	// EvFallback: the idle-detection threshold tripped (A = sleepers).
	EvFallback
	// EvComponentSeed: the quiescence protocol seeded a new component
	// root (A = vertex).
	EvComponentSeed
	// EvIdle: a worker transitioned from busy to idle.
	EvIdle
	// EvCancel: a worker observed the cancel flag and drained
	// (A = fault cause code).
	EvCancel
	// EvPanic: a worker's panic was recovered by the isolation wrapper.
	EvPanic
	// EvChaos: the chaos layer injected a fault (A = injection point).
	EvChaos
)

// String returns the schema name of the event kind.
func (k EventKind) String() string {
	switch k {
	case EvSeed:
		return "seed"
	case EvSteal:
		return "steal"
	case EvBarrier:
		return "barrier"
	case EvFallback:
		return "fallback"
	case EvComponentSeed:
		return "component-seed"
	case EvIdle:
		return "idle"
	case EvCancel:
		return "cancel"
	case EvPanic:
		return "panic"
	case EvChaos:
		return "chaos"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one timestamped trace event.
//
// The v2 schema encodes the two kind-specific arguments under per-kind
// field names (a seed event carries "vertex" and "dest", a steal event
// "victim" and "stolen", ...) instead of the v1 schema's anonymous "a"
// and "b"; decoding accepts both spellings, so v1 artifacts still load.
type Event struct {
	// TNS is nanoseconds since the recorder was created.
	TNS int64 `json:"t_ns"`
	// Worker is the reporting worker id, or -1 for run-global events.
	Worker int `json:"worker"`
	// Kind is the event type (see EventKind.String for the names).
	Kind string `json:"kind"`
	// A and B are kind-specific arguments (documented per EventKind; see
	// eventPayloadNames for their JSON spellings).
	A int64 `json:"-"`
	B int64 `json:"-"`
}

// eventPayloadNames returns the v2 JSON field names of an event kind's
// A and B payloads. Unknown kinds (and future ones decoded from newer
// artifacts) fall back to the v1 anonymous spellings.
func eventPayloadNames(kind string) (a, b string) {
	switch kind {
	case "seed":
		return "vertex", "dest"
	case "steal":
		return "victim", "stolen"
	case "barrier":
		return "episode", "b"
	case "fallback":
		return "sleepers", "b"
	case "component-seed":
		return "vertex", "b"
	case "cancel":
		return "cause", "b"
	case "chaos":
		return "point", "b"
	}
	return "a", "b"
}

// MarshalJSON encodes the event with its kind's payload field names.
// Hand-built (strconv, fixed key order) so artifacts are byte-stable
// across encoders; zero payloads are omitted, matching v1's omitempty.
func (e Event) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 64)
	buf = append(buf, `{"t_ns":`...)
	buf = strconv.AppendInt(buf, e.TNS, 10)
	buf = append(buf, `,"worker":`...)
	buf = strconv.AppendInt(buf, int64(e.Worker), 10)
	buf = append(buf, `,"kind":`...)
	buf = strconv.AppendQuote(buf, e.Kind)
	an, bn := eventPayloadNames(e.Kind)
	if e.A != 0 {
		buf = append(buf, ',', '"')
		buf = append(buf, an...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendInt(buf, e.A, 10)
	}
	if e.B != 0 {
		buf = append(buf, ',', '"')
		buf = append(buf, bn...)
		buf = append(buf, '"', ':')
		buf = strconv.AppendInt(buf, e.B, 10)
	}
	buf = append(buf, '}')
	return buf, nil
}

// UnmarshalJSON decodes an event, accepting both the v2 per-kind
// payload names and the v1 anonymous "a"/"b" spellings.
func (e *Event) UnmarshalJSON(data []byte) error {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	getInt := func(key string) (int64, bool) {
		raw, ok := m[key]
		if !ok {
			return 0, false
		}
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			return 0, false
		}
		return v, true
	}
	*e = Event{}
	e.TNS, _ = getInt("t_ns")
	if w, ok := getInt("worker"); ok {
		e.Worker = int(w)
	}
	if raw, ok := m["kind"]; ok {
		if err := json.Unmarshal(raw, &e.Kind); err != nil {
			return err
		}
	}
	an, bn := eventPayloadNames(e.Kind)
	if v, ok := getInt(an); ok {
		e.A = v
	} else if v, ok := getInt("a"); ok {
		e.A = v
	}
	if v, ok := getInt(bn); ok {
		e.B = v
	} else if v, ok := getInt("b"); ok {
		e.B = v
	}
	return nil
}

// slotPad rounds the counter array up to a multiple of two cache lines
// so neighboring workers' slots never share a line.
const slotPad = (128 - (numCounters*8)%128) % 128

type workerSlot struct {
	c [numCounters]atomic.Int64
	_ [slotPad]byte
}

// trace is the bounded ring buffer of events. A mutex keeps it simple
// and race-free; tracing is opt-in and event rates (steals, barriers,
// seeds) are orders of magnitude below the vertex-processing rate, so
// the lock is uncontended in practice.
type trace struct {
	mu      sync.Mutex
	buf     []Event
	next    int   // next slot to write (wraps)
	total   int64 // events ever recorded
	dropped int64 // events overwritten by wraparound
}

func (t *trace) add(e Event) {
	t.mu.Lock()
	if t.total >= int64(len(t.buf)) {
		t.dropped++
	}
	t.buf[t.next] = e
	t.next = (t.next + 1) % len(t.buf)
	t.total++
	t.mu.Unlock()
}

// events returns the buffered events in chronological order.
func (t *trace) events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int(t.total)
	if n > len(t.buf) {
		n = len(t.buf)
	}
	out := make([]Event, 0, n)
	start := 0
	if t.total > int64(len(t.buf)) {
		start = t.next // oldest surviving event
	}
	for i := 0; i < n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}

// Recorder collects per-worker counters, run-global counters, and an
// optional bounded event trace for one algorithm run. Create one fresh
// Recorder per run; totals are cumulative for the Recorder's lifetime.
type Recorder struct {
	workers []workerSlot
	tr      *trace
	start   time.Time
	// barrierEpisodes counts completed team-wide barrier episodes
	// (run-global, distinct from per-worker BarrierWaits).
	barrierEpisodes atomic.Int64
}

// Option configures a Recorder.
type Option func(*Recorder)

// WithTrace enables the event trace with a ring buffer of the given
// capacity (minimum 64 when enabled; cap <= 0 leaves tracing off).
func WithTrace(capacity int) Option {
	return func(r *Recorder) {
		if capacity <= 0 {
			return
		}
		if capacity < 64 {
			capacity = 64
		}
		r.tr = &trace{buf: make([]Event, capacity)}
	}
}

// New returns a Recorder for p workers (p >= 1).
func New(p int, opts ...Option) *Recorder {
	if p < 1 {
		p = 1
	}
	r := &Recorder{workers: make([]workerSlot, p), start: time.Now()}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Reset zeroes every per-worker counter, the run-global barrier-episode
// count, and the trace buffer, and restarts the trace clock — turning a
// used Recorder back into a fresh one without allocating. It is the
// reuse hook for pooled sessions, which keep one Recorder per workspace
// for the life of the session. The caller must guarantee no worker of a
// previous run still writes into the recorder (the previous run has
// fully drained); Reset is not synchronized against in-flight writers.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for i := range r.workers {
		for c := Counter(0); c < numCounters; c++ {
			r.workers[i].c[c].Store(0)
		}
	}
	r.barrierEpisodes.Store(0)
	if r.tr != nil {
		r.tr.mu.Lock()
		r.tr.next, r.tr.total, r.tr.dropped = 0, 0, 0
		r.tr.mu.Unlock()
	}
	r.start = time.Now()
}

// Total aggregates counter c across all workers without allocating: a
// sum for flow counters, a maximum for the high-water mark
// QueueHighWater, matching Snapshot's totals rule.
// Pooled sessions derive their per-run statistics through Total instead
// of Snapshot, whose slice-of-workers view allocates.
func (r *Recorder) Total(c Counter) int64 {
	if r == nil {
		return 0
	}
	var tot int64
	for i := range r.workers {
		v := r.workers[i].c[c].Load()
		if c == QueueHighWater {
			if v > tot {
				tot = v
			}
		} else {
			tot += v
		}
	}
	return tot
}

// NumWorkers returns the number of per-worker slots (0 on nil).
func (r *Recorder) NumWorkers() int {
	if r == nil {
		return 0
	}
	return len(r.workers)
}

// TraceEnabled reports whether the recorder buffers trace events.
func (r *Recorder) TraceEnabled() bool { return r != nil && r.tr != nil }

// Worker returns the counter handle for worker tid, or nil (a no-op
// sink) when r is nil or tid is out of range.
func (r *Recorder) Worker(tid int) *Worker {
	if r == nil || tid < 0 || tid >= len(r.workers) {
		return nil
	}
	return &Worker{rec: r, slot: &r.workers[tid], tid: tid}
}

// AddBarrierEpisodes adds n completed team-wide barrier episodes.
func (r *Recorder) AddBarrierEpisodes(n int64) {
	if r == nil {
		return
	}
	r.barrierEpisodes.Add(n)
}

// Trace records one event attributed to worker tid (-1 for run-global
// events). No-op unless tracing is enabled.
func (r *Recorder) Trace(tid int, kind EventKind, a, b int64) {
	if r == nil || r.tr == nil {
		return
	}
	r.tr.add(Event{
		TNS:    time.Since(r.start).Nanoseconds(),
		Worker: tid,
		Kind:   kind.String(),
		A:      a,
		B:      b,
	})
}

// Events returns the buffered trace events in chronological order
// (nil when tracing is disabled).
func (r *Recorder) Events() []Event {
	if r == nil || r.tr == nil {
		return nil
	}
	return r.tr.events()
}

// Worker is one worker's handle into its padded counter slot. The
// zero-value-nil Worker is a no-op sink.
type Worker struct {
	rec  *Recorder
	slot *workerSlot
	tid  int
}

// Add adds delta to counter c. Single-writer: only the owning worker may
// call Add/Incr/Max while the run is in flight.
func (w *Worker) Add(c Counter, delta int64) {
	if w == nil {
		return
	}
	// Load+store instead of Add: the slot is single-writer, so this is
	// race-free, and it avoids a LOCK-prefixed RMW on the hot path.
	v := &w.slot.c[c]
	v.Store(v.Load() + delta)
}

// Incr adds one to counter c.
func (w *Worker) Incr(c Counter) { w.Add(c, 1) }

// Max raises counter c to v if v is larger (for high-water marks).
func (w *Worker) Max(c Counter, v int64) {
	if w == nil {
		return
	}
	p := &w.slot.c[c]
	if v > p.Load() {
		p.Store(v)
	}
}

// Trace records one event attributed to this worker.
func (w *Worker) Trace(kind EventKind, a, b int64) {
	if w == nil {
		return
	}
	w.rec.Trace(w.tid, kind, a, b)
}

// Get returns the current value of counter c (0 on nil).
func (w *Worker) Get(c Counter) int64 {
	if w == nil {
		return 0
	}
	return w.slot.c[c].Load()
}

// Local is an unsynchronized counter batch for a worker's hot loop.
// Even a single-writer atomic store is a full fence on amd64 (XCHG), so
// per-vertex updates through Worker cost real time; a Local accumulates
// in plain memory and FlushTo moves the batch into the worker's slots
// at a coarser cadence. Concurrent Snapshot calls then see counters
// that lag by at most one unflushed batch.
type Local struct {
	c [numCounters]int64
}

// Add adds delta to counter c in the local batch.
func (l *Local) Add(c Counter, delta int64) { l.c[c] += delta }

// Incr adds one to counter c in the local batch.
func (l *Local) Incr(c Counter) { l.c[c]++ }

// FlushTo moves the accumulated batch into w and resets the batch. A
// nil w discards the batch.
func (l *Local) FlushTo(w *Worker) {
	for i, v := range l.c {
		if v != 0 {
			w.Add(Counter(i), v)
			l.c[i] = 0
		}
	}
}
