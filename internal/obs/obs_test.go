package obs

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterAggregationAcrossWorkers(t *testing.T) {
	const p = 8
	rec := New(p)
	var wg sync.WaitGroup
	for tid := 0; tid < p; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := rec.Worker(tid)
			for i := 0; i < 100; i++ {
				w.Incr(VerticesClaimed)
				w.Add(EdgesScanned, 3)
			}
			w.Add(StolenVertices, int64(tid))
			w.Max(QueueHighWater, int64(10*(tid+1)))
			w.Max(QueueHighWater, 5) // lower value must not regress the max
		}(tid)
	}
	wg.Wait()
	rec.AddBarrierEpisodes(2)

	s := rec.Snapshot()
	if s.NumWorkers != p {
		t.Fatalf("NumWorkers = %d, want %d", s.NumWorkers, p)
	}
	if got := s.Totals.VerticesClaimed; got != 100*p {
		t.Errorf("total vertices_claimed = %d, want %d", got, 100*p)
	}
	if got := s.Totals.EdgesScanned; got != 300*p {
		t.Errorf("total edges_scanned = %d, want %d", got, 300*p)
	}
	if got := s.Totals.StolenVertices; got != p*(p-1)/2 {
		t.Errorf("total stolen_vertices = %d, want %d", got, p*(p-1)/2)
	}
	// QueueHighWater aggregates by max, not sum.
	if got := s.Totals.QueueHighWater; got != 10*p {
		t.Errorf("total queue_high_water = %d, want %d (max, not sum)", got, 10*p)
	}
	if s.BarrierEpisodes != 2 {
		t.Errorf("barrier_episodes = %d, want 2", s.BarrierEpisodes)
	}
	for tid := 0; tid < p; tid++ {
		w := s.Workers[tid]
		if w.Worker != tid {
			t.Errorf("workers[%d].Worker = %d", tid, w.Worker)
		}
		if w.VerticesClaimed != 100 || w.QueueHighWater != int64(10*(tid+1)) {
			t.Errorf("workers[%d] = %+v", tid, w.Counters)
		}
	}
}

// TestWorkerSlotPadding: counter slots are whole 128-byte line pairs,
// so neighbouring workers never share one.
func TestWorkerSlotPadding(t *testing.T) {
	if size := unsafe.Sizeof(workerSlot{}); size%128 != 0 {
		t.Fatalf("workerSlot is %d bytes, want a multiple of 128", size)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	if rec.NumWorkers() != 0 {
		t.Error("nil recorder has workers")
	}
	w := rec.Worker(0)
	w.Incr(VerticesClaimed) // must not panic
	w.Add(EdgesScanned, 5)
	w.Max(QueueHighWater, 7)
	w.Trace(EvSteal, 1, 2)
	if w.Get(EdgesScanned) != 0 {
		t.Error("nil worker returned a value")
	}
	rec.AddBarrierEpisodes(1)
	rec.Trace(-1, EvBarrier, 0, 0)
	if ev := rec.Events(); ev != nil {
		t.Errorf("nil recorder has events: %v", ev)
	}
	s := rec.Snapshot()
	if s.NumWorkers != 0 || len(s.Workers) != 0 {
		t.Errorf("nil snapshot: %+v", s)
	}
	// Out-of-range worker ids are no-op sinks, not panics.
	rec2 := New(2)
	rec2.Worker(-1).Incr(VerticesClaimed)
	rec2.Worker(99).Incr(VerticesClaimed)
	if got := rec2.Snapshot().Totals.VerticesClaimed; got != 0 {
		t.Errorf("out-of-range writes landed: %d", got)
	}
}

func TestTraceRingBufferWraparound(t *testing.T) {
	rec := New(1, WithTrace(64)) // 64 is the minimum capacity
	if !rec.TraceEnabled() {
		t.Fatal("trace not enabled")
	}
	const total = 150
	for i := 0; i < total; i++ {
		rec.Trace(0, EvSteal, int64(i), 0)
	}
	ev := rec.Events()
	if len(ev) != 64 {
		t.Fatalf("got %d events, want 64 (ring capacity)", len(ev))
	}
	// The surviving events are the newest 64, in chronological order.
	for i, e := range ev {
		if want := int64(total - 64 + i); e.A != want {
			t.Fatalf("event %d has A=%d, want %d", i, e.A, want)
		}
	}
	s := rec.Snapshot()
	if s.TraceTotal != total {
		t.Errorf("trace_total = %d, want %d", s.TraceTotal, total)
	}
	if s.TraceDropped != total-64 {
		t.Errorf("trace_dropped = %d, want %d", s.TraceDropped, total-64)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	rec := New(4)
	rec.Trace(0, EvSteal, 1, 2)
	rec.Worker(0).Trace(EvSeed, 1, 2)
	if rec.TraceEnabled() || rec.Events() != nil {
		t.Error("default recorder buffered events")
	}
}

func TestEventKindNames(t *testing.T) {
	want := map[EventKind]string{
		EvSeed: "seed", EvSteal: "steal", EvBarrier: "barrier",
		EvFallback: "fallback", EvComponentSeed: "component-seed", EvIdle: "idle",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), name)
		}
	}
}

func TestArtifactJSONRoundTrip(t *testing.T) {
	rec := New(2, WithTrace(128))
	rec.Worker(0).Add(VerticesClaimed, 10)
	rec.Worker(0).Max(QueueHighWater, 4)
	rec.Worker(1).Add(EdgesScanned, 20)
	rec.Worker(1).Incr(StealSuccesses)
	rec.AddBarrierEpisodes(3)
	rec.Trace(0, EvSteal, 1, 5)
	rec.Trace(-1, EvBarrier, 1, 0)

	rep := rec.NewReport("test/run/p=2", map[string]string{"graph": "torus", "p": "2"})
	rep.ElapsedNS = 12345
	rep = rep.WithEvents(rec)

	path := filepath.Join(t.TempDir(), "sub", "metrics.json")
	a := &Artifact{Runs: []Report{rep}}
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != Schema || got.SchemaVersion != SchemaVersion {
		t.Errorf("schema = %q v%d", got.Schema, got.SchemaVersion)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("got %d runs", len(got.Runs))
	}
	if !reflect.DeepEqual(got.Runs[0], rep) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got.Runs[0], rep)
	}
}

// TestSchemaFieldNames pins the JSON field names: the artifacts are CI
// build outputs consumed across commits, so renaming a field is a
// breaking change that must be caught here.
func TestSchemaFieldNames(t *testing.T) {
	rec := New(1)
	rec.Worker(0).Incr(VerticesClaimed)
	data, err := json.Marshal(rec.NewReport("l", nil))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "schema_version", "snapshot"} {
		if _, ok := m[key]; !ok {
			t.Errorf("report is missing %q: %s", key, data)
		}
	}
	snap := m["snapshot"].(map[string]any)
	for _, key := range []string{"num_workers", "barrier_episodes", "totals", "workers"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot is missing %q", key)
		}
	}
	totals := snap["totals"].(map[string]any)
	for _, key := range []string{
		"vertices_claimed", "edges_scanned", "steal_attempts",
		"steal_successes", "steal_failures", "stolen_vertices",
		"failed_claims", "queue_high_water", "barrier_waits",
		"idle_transitions", "fallback_triggers", "seeded_components",
	} {
		if _, ok := totals[key]; !ok {
			t.Errorf("totals is missing %q", key)
		}
	}
}

func TestCollector(t *testing.T) {
	c := &Collector{TraceCap: 64}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := c.NewRecorder(2)
			rec.Worker(0).Incr(VerticesClaimed)
			rec.Trace(0, EvSteal, int64(i), 0)
			c.Collect(fmt.Sprintf("run-%d", i), nil, 100, rec)
		}(i)
	}
	wg.Wait()
	if c.Len() != 4 {
		t.Fatalf("collected %d reports, want 4", c.Len())
	}

	dir := t.TempDir()
	mPath := filepath.Join(dir, "metrics.json")
	tPath := filepath.Join(dir, "trace.json")
	if err := c.WriteMetrics(mPath); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteTrace(tPath); err != nil {
		t.Fatal(err)
	}
	ma, err := ReadArtifact(mPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ma.Runs {
		if len(r.Events) != 0 {
			t.Error("metrics artifact carries events")
		}
	}
	ta, err := ReadArtifact(tPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Runs) != 4 {
		t.Fatalf("trace artifact has %d runs, want 4", len(ta.Runs))
	}
	for _, r := range ta.Runs {
		if len(r.Events) != 1 {
			t.Errorf("trace run %q has %d events, want 1", r.Label, len(r.Events))
		}
	}

	// A nil collector is a no-op sink end to end.
	var nc *Collector
	if rec := nc.NewRecorder(2); rec != nil {
		t.Error("nil collector produced a recorder")
	}
	nc.Collect("x", nil, 0, nil)
	if nc.Len() != 0 {
		t.Error("nil collector collected")
	}
}

func TestConcurrentSnapshotDuringWrites(t *testing.T) {
	// Snapshot may race with single-writer counter updates; under -race
	// this test proves the load/store discipline is clean.
	rec := New(4, WithTrace(256))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for tid := 0; tid < 4; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := rec.Worker(tid)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				w.Incr(VerticesClaimed)
				w.Max(QueueHighWater, int64(i%100))
				if i%50 == 0 {
					w.Trace(EvSteal, int64(i), 0)
				}
			}
		}(tid)
	}
	for i := 0; i < 100; i++ {
		s := rec.Snapshot()
		if s.Totals.VerticesClaimed < 0 {
			t.Fatal("negative counter")
		}
		rec.Events()
	}
	close(stop)
	wg.Wait()
}
