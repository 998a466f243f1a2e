package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spantree/internal/gen"
)

// --- Adaptive admission (limiter.go) --------------------------------

// TestLimiterAIMD drives the adaptive limit through its whole feedback
// loop: ceiling admission, multiplicative decrease on overload (spaced
// by the cooldown), the floor at 1, and the additive climb after a
// window of healthy completions inside the tail budget.
func TestLimiterAIMD(t *testing.T) {
	l := newAIMDLimiter(8, 10*time.Millisecond)
	for i := 0; i < 8; i++ {
		if !l.Acquire() {
			t.Fatalf("Acquire %d refused below the ceiling", i)
		}
	}
	if l.Acquire() {
		t.Fatal("Acquire above the ceiling admitted")
	}
	// One stall/deadline outcome halves the limit; a second within the
	// cooldown is absorbed (one burst, one halving).
	l.Release(time.Millisecond, true)
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after one overload = %d, want 4", got)
	}
	l.Release(time.Millisecond, true)
	if got := l.Limit(); got != 4 {
		t.Fatalf("limit after overload inside cooldown = %d, want 4 (one halving per burst)", got)
	}
	// Past the cooldown the next overload halves again, down to the
	// floor of 1 — the limiter never refuses all traffic.
	for i := 0; i < 4; i++ {
		l.mu.Lock()
		l.lastDec = time.Now().Add(-time.Second)
		l.mu.Unlock()
		l.Release(time.Millisecond, true)
	}
	if got := l.Limit(); got != 1 {
		t.Fatalf("limit floor = %d, want 1", got)
	}
	// A full window of healthy completions with the observed tail inside
	// the budget buys back one slot; a window containing one blowout
	// (tail over budget) buys nothing.
	for i := 0; i < limiterWindow; i++ {
		l.Release(time.Millisecond, false)
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit after a healthy window = %d, want 2", got)
	}
	l.Release(time.Second, false) // poisons the ring for a full window
	for i := 0; i < limiterWindow-1; i++ {
		l.Release(time.Millisecond, false)
	}
	if got := l.Limit(); got != 2 {
		t.Fatalf("limit grew on a window with a blown tail: %d, want 2", got)
	}
	// The limit never climbs past the configured ceiling.
	for w := 0; w < 16*limiterWindow; w++ {
		l.Release(time.Millisecond, false)
	}
	if got := l.Limit(); got != 8 {
		t.Fatalf("limit ceiling = %d, want 8", got)
	}
}

// --- Degradation ladder (ladder.go) ---------------------------------

// TestLadderStepDownAndRecovery: three consecutive stall/deadline
// failures step a graph down one rung; repeated bursts walk it to the
// sequential floor; readiness flips to the typed degraded 503 while any
// rung is held; and cooled-down healthy completions climb all the way
// back.
func TestLadderStepDownAndRecovery(t *testing.T) {
	s, ts := newTestServer(t, Config{NumProcs: 4, PoolSize: 1, CoolDown: time.Nanosecond})
	if err := s.Register("g", gen.Spec{Kind: "torus2d", N: 256, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e := s.lookup("g")

	// Non-degradation failures (client gone, eviction race) must not
	// move the ladder.
	for i := 0; i < 10; i++ {
		s.noteFailure(e, false)
	}
	if r := e.rung.Load(); r != 0 {
		t.Fatalf("rung after non-overload failures = %d, want 0", r)
	}
	// A streak broken by a success must not step down either.
	s.noteFailure(e, true)
	s.noteFailure(e, true)
	s.noteSuccess(e)
	s.noteFailure(e, true)
	s.noteFailure(e, true)
	if r := e.rung.Load(); r != 0 {
		t.Fatalf("rung after a broken streak = %d, want 0", r)
	}
	e.fails.Store(0)

	// Walk down the whole ladder, one burst of degradeAfter per rung.
	for want := int32(1); want <= maxRung; want++ {
		for i := 0; i < degradeAfter; i++ {
			s.noteFailure(e, true)
		}
		if r := e.rung.Load(); r != want {
			t.Fatalf("rung after burst = %d, want %d", r, want)
		}
	}
	for i := 0; i < 2*degradeAfter; i++ {
		s.noteFailure(e, true)
	}
	if r := e.rung.Load(); r != maxRung {
		t.Fatalf("rung past the floor = %d, want %d", e.rung.Load(), maxRung)
	}
	if got := s.degradeSteps.Load(); got != int64(maxRung) {
		t.Fatalf("degradeSteps = %d, want %d", got, maxRung)
	}

	// Degraded execution still serves valid answers — the sequential
	// rung's pool is built lazily on first use.
	resp, raw := postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "g", Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spantree at rung %d: status %d body %s", maxRung, resp.StatusCode, raw)
	}

	// The rung shows up in GraphInfo and flips readiness to the typed
	// degraded 503. (The request above succeeded, so with the nanosecond
	// cool-down it already climbed one rung back.)
	infos := s.listGraphs()
	if len(infos) != 1 || infos[0].Rung == 0 {
		t.Fatalf("GraphInfo did not surface the rung: %+v", infos)
	}
	hr, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while degraded: status %d, want 503", hr.StatusCode)
	}
	if e := decodeError(t, body); e.Error != CodeDegraded {
		t.Fatalf("readyz while degraded: code %q, want %q", e.Error, CodeDegraded)
	}

	// Healthy completions past the (nanosecond) cool-down climb back to
	// the configured execution, one rung each.
	for i := 0; i < numRungs; i++ {
		s.noteSuccess(e)
	}
	if r := e.rung.Load(); r != 0 {
		t.Fatalf("rung after recovery = %d, want 0", r)
	}
	hr, err = http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: status %d, want 200", hr.StatusCode)
	}
}

// TestLadderOptions pins what each rung strips: half the workers
// first, then all parallelism.
func TestLadderOptions(t *testing.T) {
	e := &entry{}
	e.base.NumProcs = 4
	if o := e.optionsFor(0); o.NumProcs != 4 {
		t.Fatalf("rung 0 options: %+v", o)
	}
	if o := e.optionsFor(1); o.NumProcs != 2 {
		t.Fatalf("rung 1 options: %+v", o)
	}
	if o := e.optionsFor(2); o.NumProcs != 1 {
		t.Fatalf("rung 2 options: %+v", o)
	}
	if maxRung != 2 {
		t.Fatalf("maxRung = %d, want the sequential rung 2", maxRung)
	}
	// A single-proc base cannot halve below 1.
	e.base.NumProcs = 1
	if o := e.optionsFor(1); o.NumProcs != 1 {
		t.Fatalf("rung 1 on p=1 base: %+v", o)
	}
}

// --- Readiness and drain (serve.go) ---------------------------------

// TestServeDrainCycle: POST /v1/drain flips readiness to the typed 503
// while liveness stays 200, and DELETE restores it — the preStop
// contract the loadgen probe asserts end to end.
func TestServeDrainCycle(t *testing.T) {
	_, ts := newTestServer(t, Config{NumProcs: 1, PoolSize: 1})
	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	if st, _ := get("/v1/readyz"); st != http.StatusOK {
		t.Fatalf("readyz before drain: %d", st)
	}
	resp, err := http.Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	st, body := get("/v1/readyz")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", st)
	}
	if e := decodeError(t, body); e.Error != CodeDraining {
		t.Fatalf("readyz while draining: code %q, want %q", e.Error, CodeDraining)
	}
	if st, _ := get("/v1/healthz"); st != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200 (liveness is not readiness)", st)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/drain", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /v1/drain: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if st, _ := get("/v1/readyz"); st != http.StatusOK {
		t.Fatalf("readyz after undrain: %d, want 200", st)
	}
}

// --- Crash-safe registry (journal.go) -------------------------------

func listBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJournalCrashRestart is the headline crash-safety contract: a
// server that dies without any shutdown path (the journal file is
// simply abandoned, as under SIGKILL) is rebooted against the same
// journal and must serve the exact same GET /v1/graphs bytes —
// registrations and evictions included.
func TestJournalCrashRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.journal")
	a := New(Config{NumProcs: 1, PoolSize: 1})
	if err := a.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta", "gamma"} {
		if err := a.Register(name, gen.Spec{Kind: "chain", N: 64, Seed: 3}); err != nil {
			t.Fatal(err)
		}
	}
	tsA := startHTTP(t, a)
	req, _ := http.NewRequest(http.MethodDelete, tsA.URL+"/v1/graphs/beta", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	want := listBody(t, tsA.URL)
	// No Close, no drain: the "process" is gone, only the file remains.

	b := New(Config{NumProcs: 1, PoolSize: 1})
	defer b.Close()
	if err := b.OpenJournal(path); err != nil {
		t.Fatalf("replay after crash: %v", err)
	}
	tsB := startHTTP(t, b)
	got := listBody(t, tsB.URL)
	if string(got) != string(want) {
		t.Fatalf("graph list after crash restart:\n got %s\nwant %s", got, want)
	}
	a.Close() // release the abandoned server's teams for later tests
}

// startHTTP fronts a Server the test constructed itself (the journal
// tests control Close ordering, so newTestServer's cleanup doesn't
// fit; only the HTTP listener is cleaned up here).
func startHTTP(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts
}

// TestJournalTornTailRecovery: a torn trailing append (crash mid-write)
// is dropped on replay and truncated away, so post-recovery appends
// keep the file replayable — the third boot must still see a clean
// stream including the post-crash registration.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.journal")
	a := New(Config{NumProcs: 1, PoolSize: 1})
	if err := a.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	if err := a.Register("kept", gen.Spec{Kind: "chain", N: 32}); err != nil {
		t.Fatal(err)
	}
	a.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"register","name":"torn","spec":{"ki`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := New(Config{NumProcs: 1, PoolSize: 1})
	if err := b.OpenJournal(path); err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if b.lookup("kept") == nil || b.lookup("torn") != nil {
		t.Fatal("torn tail replay: wrong live set")
	}
	if err := b.Register("after", gen.Spec{Kind: "chain", N: 32}); err != nil {
		t.Fatalf("register after torn-tail recovery: %v", err)
	}
	b.Close()

	c := New(Config{NumProcs: 1, PoolSize: 1})
	defer c.Close()
	if err := c.OpenJournal(path); err != nil {
		t.Fatalf("replay after recovery appends: %v", err)
	}
	if c.lookup("kept") == nil || c.lookup("after") == nil || c.lookup("torn") != nil {
		t.Fatal("post-recovery replay: wrong live set")
	}
}

// TestJournalCorruptionRefusesBoot: malformed content with complete
// records after it is corruption, not a crash artifact, and the server
// must refuse to boot on it rather than silently drop graphs.
func TestJournalCorruptionRefusesBoot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.journal")
	lines := []string{
		`{"schema":"spantree/journal/v1"}`,
		`{"op":"register","name":"a","spec":{"ki`, // torn mid-file
		`{"op":"register","name":"b","spec":{"kind":"chain","n":8}}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{NumProcs: 1, PoolSize: 1})
	defer s.Close()
	if err := s.OpenJournal(path); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// TestJournalCompaction: once the op log outruns the live set, the file
// is rewritten as a snapshot — and the snapshot still replays to the
// same registry.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "registry.journal")
	s := New(Config{NumProcs: 1, PoolSize: 1})
	if err := s.OpenJournal(path); err != nil {
		t.Fatal(err)
	}
	ts := startHTTP(t, s)
	// Churn far past the compaction floor with one graph live at a time.
	for i := 0; i < 12; i++ {
		if err := s.Register("churn", gen.Spec{Kind: "chain", N: 16}); err != nil {
			t.Fatal(err)
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/churn", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("evict %d: %v %v", i, resp.StatusCode, err)
		}
		resp.Body.Close()
	}
	if err := s.Register("live", gen.Spec{Kind: "chain", N: 16}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nlines := strings.Count(string(data), "\n")
	// 25 mutations happened; a compacted file holds the header plus the
	// live set (1 graph) plus at most the post-compaction tail.
	if nlines > 10 {
		t.Fatalf("journal not compacted: %d lines\n%s", nlines, data)
	}

	r := New(Config{NumProcs: 1, PoolSize: 1})
	defer r.Close()
	if err := r.OpenJournal(path); err != nil {
		t.Fatalf("replay of compacted journal: %v", err)
	}
	infos := r.listGraphs()
	if len(infos) != 1 || infos[0].Name != "live" {
		t.Fatalf("compacted replay: %+v", infos)
	}
}

// TestStatsCountersSurface: the new resilience counters ride the stats
// endpoint.
func TestStatsCountersSurface(t *testing.T) {
	s, ts := newTestServer(t, Config{NumProcs: 1, PoolSize: 1, MaxInFlight: 3})
	s.stallTrips.Store(2)
	s.degradeSteps.Store(1)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.AdmitLimit != 3 || st.StallTrips != 2 || st.DegradeSteps != 1 || st.Draining {
		t.Fatalf("stats: %+v", st)
	}
}
