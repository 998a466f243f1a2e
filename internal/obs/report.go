package obs

// Snapshot, Report and Artifact: the stable JSON schema every tool
// emits. Schema stability is load-bearing — CI uploads these files as
// build artifacts on every push (BENCH_*.json), so the perf trajectory
// of the repository is a time series of this exact shape. Grow the
// schema by adding fields; never rename or repurpose existing ones, and
// bump SchemaVersion on any incompatible change.

// Schema is the identifier embedded in every Report. v2 names each
// trace event's payload fields per kind (see Event) where v1 used
// anonymous "a"/"b"; counters are a superset of v1's, so v1 artifacts
// decode losslessly (see SchemaV1 readers in internal/stats).
const Schema = "spantree/obs/v2"

// SchemaV1 is the previous schema identifier, still accepted by
// readers so existing baselines keep comparing.
const SchemaV1 = "spantree/obs/v1"

// SchemaVersion is the current version of the JSON schema.
const SchemaVersion = 2

// Counters is the JSON form of one counter set (per-worker, or the
// run-wide aggregate).
type Counters struct {
	VerticesClaimed  int64 `json:"vertices_claimed"`
	EdgesScanned     int64 `json:"edges_scanned"`
	StealAttempts    int64 `json:"steal_attempts"`
	StealSuccesses   int64 `json:"steal_successes"`
	StealFailures    int64 `json:"steal_failures"`
	StolenVertices   int64 `json:"stolen_vertices"`
	FailedClaims     int64 `json:"failed_claims"`
	QueueHighWater   int64 `json:"queue_high_water"`
	BarrierWaits     int64 `json:"barrier_waits"`
	IdleTransitions  int64 `json:"idle_transitions"`
	FallbackTriggers int64 `json:"fallback_triggers"`
	SeededComponents int64 `json:"seeded_components"`
	// The chunked-drain counters were added with the batched runtime
	// (schema grows additively); omitempty keeps reports from algorithms
	// without a drain loop (the SV family) unchanged.
	ChunkDrains     int64 `json:"chunk_drains,omitempty"`
	DrainedVertices int64 `json:"drained_vertices,omitempty"`
	// DrainHist is the log2 histogram of effective drain sizes (bucket i
	// counts drains of [2^i, 2^(i+1)) vertices, last bucket open-ended);
	// nil when no drain ran.
	DrainHist []int64 `json:"drain_hist,omitempty"`
	// The robustness counters were added with the hardened runtime
	// (schema grows additively); all three stay omitted for runs that
	// complete without cancellation, recovered panics, or injected
	// faults, so pre-hardening artifacts compare unchanged.
	Cancels         int64 `json:"cancels,omitempty"`
	PanicsRecovered int64 `json:"panics_recovered,omitempty"`
	ChaosInjections int64 `json:"chaos_injections,omitempty"`
	// The union-find counters were added with the edge-centric CAS-hook
	// family (schema grows additively); all four stay omitted for
	// traversal runs, so earlier artifacts compare unchanged.
	HooksWon          int64 `json:"hooks_won,omitempty"`
	HooksLost         int64 `json:"hooks_lost,omitempty"`
	UFFinds           int64 `json:"uf_finds,omitempty"`
	CompressionWrites int64 `json:"compression_writes,omitempty"`
	// StallTrips was added with the serving-grade hardening (schema
	// grows additively); it stays omitted for runs that never stall, so
	// earlier artifacts compare unchanged.
	StallTrips int64 `json:"stall_trips,omitempty"`
}

// countersFrom maps the counter array into the named JSON fields.
func countersFrom(c *[numCounters]int64) Counters {
	out := Counters{
		VerticesClaimed:   c[VerticesClaimed],
		EdgesScanned:      c[EdgesScanned],
		StealAttempts:     c[StealAttempts],
		StealSuccesses:    c[StealSuccesses],
		StealFailures:     c[StealFailures],
		StolenVertices:    c[StolenVertices],
		FailedClaims:      c[FailedClaims],
		QueueHighWater:    c[QueueHighWater],
		BarrierWaits:      c[BarrierWaits],
		IdleTransitions:   c[IdleTransitions],
		FallbackTriggers:  c[FallbackTriggers],
		SeededComponents:  c[SeededComponents],
		ChunkDrains:       c[ChunkDrains],
		DrainedVertices:   c[DrainedVertices],
		Cancels:           c[Cancels],
		PanicsRecovered:   c[PanicsRecovered],
		ChaosInjections:   c[ChaosInjections],
		HooksWon:          c[HooksWon],
		HooksLost:         c[HooksLost],
		UFFinds:           c[UFFinds],
		CompressionWrites: c[CompressionWrites],
		StallTrips:        c[StallTrips],
	}
	for b := 0; b < DrainHistBuckets; b++ {
		if c[DrainHist0+Counter(b)] != 0 {
			out.DrainHist = make([]int64, DrainHistBuckets)
			for i := 0; i < DrainHistBuckets; i++ {
				out.DrainHist[i] = c[DrainHist0+Counter(i)]
			}
			break
		}
	}
	return out
}

// WorkerCounters is one worker's counter set plus its id.
type WorkerCounters struct {
	Worker int `json:"worker"`
	Counters
}

// Snapshot is a point-in-time aggregation of a Recorder. Totals sums
// every counter across workers except the high-water mark
// QueueHighWater, which takes the maximum (a sum of high-water marks
// has no meaning).
type Snapshot struct {
	NumWorkers      int              `json:"num_workers"`
	BarrierEpisodes int64            `json:"barrier_episodes"`
	TraceTotal      int64            `json:"trace_total,omitempty"`
	TraceDropped    int64            `json:"trace_dropped,omitempty"`
	Totals          Counters         `json:"totals"`
	Workers         []WorkerCounters `json:"workers"`
}

// Snapshot aggregates the per-worker slots. Safe to call at any time;
// the snapshot taken after the worker goroutines join is exact.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		NumWorkers:      len(r.workers),
		BarrierEpisodes: r.barrierEpisodes.Load(),
		Workers:         make([]WorkerCounters, len(r.workers)),
	}
	var totals [numCounters]int64
	for tid := range r.workers {
		var vals [numCounters]int64
		for c := Counter(0); c < numCounters; c++ {
			vals[c] = r.workers[tid].c[c].Load()
			if c == QueueHighWater {
				// A sum of high-water marks has no meaning; aggregate by max.
				if vals[c] > totals[c] {
					totals[c] = vals[c]
				}
			} else {
				totals[c] += vals[c]
			}
		}
		s.Workers[tid] = WorkerCounters{Worker: tid, Counters: countersFrom(&vals)}
	}
	s.Totals = countersFrom(&totals)
	if r.tr != nil {
		r.tr.mu.Lock()
		s.TraceTotal = r.tr.total
		s.TraceDropped = r.tr.dropped
		r.tr.mu.Unlock()
	}
	return s
}

// Report is the metrics artifact for one algorithm run: identifying
// metadata plus the counter snapshot and (when tracing was enabled and
// the caller asked for them) the event timeline.
type Report struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	// Label identifies the run, e.g. "workstealing/torus2d-65536/p=8".
	Label string `json:"label,omitempty"`
	// Meta carries free-form run parameters (graph, seed, flags...).
	Meta map[string]string `json:"meta,omitempty"`
	// ElapsedNS is the run's wall-clock time in nanoseconds (0 if the
	// caller did not measure it).
	ElapsedNS int64    `json:"elapsed_ns,omitempty"`
	Snapshot  Snapshot `json:"snapshot"`
	// Events is the trace timeline; omitted from metrics-only artifacts.
	Events []Event `json:"events,omitempty"`
}

// NewReport assembles a Report from the recorder's current state,
// without the event timeline (see WithEvents).
func (r *Recorder) NewReport(label string, meta map[string]string) Report {
	return Report{
		Schema:        Schema,
		SchemaVersion: SchemaVersion,
		Label:         label,
		Meta:          meta,
		Snapshot:      r.Snapshot(),
	}
}

// WithEvents returns a copy of the report carrying the recorder's
// buffered trace events.
func (rep Report) WithEvents(r *Recorder) Report {
	rep.Events = r.Events()
	return rep
}
