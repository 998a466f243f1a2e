package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"spantree"
	"spantree/internal/gen"
	"spantree/internal/graph"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func decodeError(t *testing.T, raw []byte) ErrorBody {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body %q: %v", raw, err)
	}
	return e
}

// TestServeLifecycle walks the full API surface: health, register, list,
// run (with and without the parent array), evict, and the 404 after.
func TestServeLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{NumProcs: 2, PoolSize: 2})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	reg := RegisterRequest{Name: "small", Kind: "torus2d", N: 256, Seed: 7}
	resp, _ = postJSON(t, ts.URL+"/v1/graphs", reg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d", resp.StatusCode)
	}

	resp, raw := postJSON(t, ts.URL+"/v1/graphs", reg)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register: status %d", resp.StatusCode)
	}
	if e := decodeError(t, raw); e.Error != CodeConflict {
		t.Fatalf("duplicate register: code %q", e.Error)
	}

	var list GraphListResponse
	resp, err = http.Get(ts.URL + "/v1/graphs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Graphs) != 1 || list.Graphs[0].Name != "small" || list.Graphs[0].N != 256 {
		t.Fatalf("list: %+v", list)
	}

	// A run without the parent array.
	resp, raw = postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "small", Seed: 42})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spantree: status %d body %s", resp.StatusCode, raw)
	}
	var run SpanTreeResponse
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	if run.N != 256 || run.Roots != 1 || run.TreeEdges != 255 || len(run.Parent) != 0 {
		t.Fatalf("spantree: %+v", run)
	}

	// A run returning the full forest; verify it against the same spec.
	resp, raw = postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "small", Seed: 42, IncludeParent: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spantree parent: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(gen.Spec{Kind: "torus2d", N: 256, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Parent) != g.NumVertices() {
		t.Fatalf("parent length %d, want %d", len(run.Parent), g.NumVertices())
	}
	if err := spantree.Verify(g, run.Parent); err != nil {
		t.Fatalf("served forest invalid: %v", err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/graphs/small", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("evict: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, raw = postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "small"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("spantree after evict: status %d", resp.StatusCode)
	}
	if e := decodeError(t, raw); e.Error != CodeNotFound {
		t.Fatalf("spantree after evict: code %q", e.Error)
	}
}

// TestServeGraphTooLarge: registrations above the vertex cap are turned
// away with the typed 413 before any memory is committed.
func TestServeGraphTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{NumProcs: 1, PoolSize: 1, MaxVertices: 1000})
	resp, raw := postJSON(t, ts.URL+"/v1/graphs",
		RegisterRequest{Name: "big", Kind: "chain", N: 100000})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if e := decodeError(t, raw); e.Error != CodeGraphTooLarge {
		t.Fatalf("code %q, want %q", e.Error, CodeGraphTooLarge)
	}
}

// TestServeOverloaded: with the admission semaphore full, a request is
// rejected immediately with the typed 429 — it never queues behind the
// in-flight work.
func TestServeOverloaded(t *testing.T) {
	s, ts := newTestServer(t, Config{NumProcs: 1, PoolSize: 1, MaxInFlight: 1})
	if err := s.Register("g", gen.Spec{Kind: "chain", N: 64}); err != nil {
		t.Fatal(err)
	}
	// Occupy the only admission slot as an in-flight request would.
	if !s.lim.Acquire() {
		t.Fatal("could not take the only admission slot")
	}
	resp, raw := postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "g"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without a Retry-After hint")
	}
	if e := decodeError(t, raw); e.Error != CodeOverloaded {
		t.Fatalf("code %q, want %q", e.Error, CodeOverloaded)
	}
	s.lim.Release(0, false)
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// With the slot free the same request succeeds.
	resp, _ = postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "g"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d", resp.StatusCode)
	}
}

// TestServeDeadline: a request whose deadline expires while it waits for
// a session gets the typed 504 through the fault plumbing.
func TestServeDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{NumProcs: 1, PoolSize: 1, MaxInFlight: 4})
	if err := s.Register("g", gen.Spec{Kind: "chain", N: 64}); err != nil {
		t.Fatal(err)
	}
	// Hold the pool's only session so the request's Acquire blocks until
	// its 20ms deadline fires.
	e := s.lookup("g")
	sess, ok := e.pools[0].TryAcquire()
	if !ok {
		t.Fatal("could not drain the pool")
	}
	resp, raw := postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "g", TimeoutMS: 20})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, raw)
	}
	if e := decodeError(t, raw); e.Error != CodeDeadline {
		t.Fatalf("code %q, want %q", e.Error, CodeDeadline)
	}
	if got := s.deadlines.Load(); got != 1 {
		t.Fatalf("deadlines counter = %d, want 1", got)
	}
	e.pools[0].Release(sess)
	resp, _ = postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "g", TimeoutMS: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d", resp.StatusCode)
	}
}

// TestServeBadRequests: malformed JSON and unknown generator kinds map
// to the typed 400.
func TestServeBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{NumProcs: 1, PoolSize: 1})
	resp, err := http.Post(ts.URL+"/v1/spantree", "application/json",
		bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}
	resp2, raw := postJSON(t, ts.URL+"/v1/graphs",
		RegisterRequest{Name: "x", Kind: "nonsense", N: 10})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d", resp2.StatusCode)
	}
	if e := decodeError(t, raw); e.Error != CodeBadRequest {
		t.Fatalf("unknown kind: code %q", e.Error)
	}
}

// TestServeConcurrent hammers one graph from many clients (run under
// -race in CI): every response is either a valid 200 forest summary or
// a typed 429, and the stats counters reconcile with what the clients
// saw.
func TestServeConcurrent(t *testing.T) {
	s, ts := newTestServer(t, Config{NumProcs: 2, PoolSize: 2, MaxInFlight: 4})
	if err := s.Register("g", gen.Spec{Kind: "random", N: 300, M: 700, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	g, err := gen.Generate(gen.Spec{Kind: "random", N: 300, M: 700, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	wantRoots := graph.NumComponents(g)
	var wg sync.WaitGroup
	var ok200, ok429 int64
	var mu sync.Mutex
	errCh := make(chan error, 64)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, raw := postJSON(t, ts.URL+"/v1/spantree",
					SpanTreeRequest{Graph: "g", Seed: uint64(c*100 + i)})
				switch resp.StatusCode {
				case http.StatusOK:
					var run SpanTreeResponse
					if err := json.Unmarshal(raw, &run); err != nil {
						errCh <- err
						return
					}
					if run.Roots != wantRoots {
						errCh <- fmt.Errorf("roots %d, want %d", run.Roots, wantRoots)
						return
					}
					mu.Lock()
					ok200++
					mu.Unlock()
				case http.StatusTooManyRequests:
					mu.Lock()
					ok429++
					mu.Unlock()
				default:
					errCh <- fmt.Errorf("unexpected status %d: %s", resp.StatusCode, raw)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if ok200 == 0 {
		t.Fatal("no request succeeded")
	}
	if s.served.Load() != ok200 || s.rejected.Load() != ok429 {
		t.Fatalf("counters served=%d rejected=%d, clients saw %d/%d",
			s.served.Load(), s.rejected.Load(), ok200, ok429)
	}
}

// TestServeReportsCompactLayout: a registered graph reports the one
// layout the traversal reads, "compact", in a form spantree.ParseLayout
// accepts, and its pool serves valid forests.
func TestServeReportsCompactLayout(t *testing.T) {
	s, ts := newTestServer(t, Config{NumProcs: 2, PoolSize: 1})
	if err := s.Register("g", gen.Spec{Kind: "torus2d", N: 256, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	infos := s.listGraphs()
	if len(infos) != 1 || infos[0].Layout != "compact" {
		t.Fatalf("graph info %+v, want layout compact", infos)
	}
	if lay, err := spantree.ParseLayout(infos[0].Layout); err != nil || lay != spantree.LayoutCompact {
		t.Fatalf("ParseLayout(%q) = %v, %v", infos[0].Layout, lay, err)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "g", IncludeParent: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spantree: status %d body %s", resp.StatusCode, raw)
	}
	var run SpanTreeResponse
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	g, _ := gen.Generate(gen.Spec{Kind: "torus2d", N: 256, Seed: 7})
	if err := spantree.Verify(g, run.Parent); err != nil {
		t.Fatalf("served forest invalid: %v", err)
	}
}

// TestServe200PathZeroAlloc: the algorithm work behind a 200 stays
// allocation-free. (The HTTP/JSON envelope allocates; the guarantee is
// that the session run inside it does not.)
func TestServe200PathZeroAlloc(t *testing.T) {
	s := New(Config{NumProcs: 2, PoolSize: 1})
	defer s.Close()
	if err := s.Register("g", gen.Spec{Kind: "torus2d", N: 1024, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	e := s.lookup("g")
	sess, ok := e.pools[0].TryAcquire()
	if !ok {
		t.Fatal("pool empty")
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := sess.FindContext(context.Background(), 42); err != nil {
			t.Fatal(err)
		}
	})
	e.pools[0].Release(sess)
	if avg != 0 {
		t.Errorf("AllocsPerRun = %v, want 0", avg)
	}
}

// TestServeStats: the stats endpoint reports host shape and counters.
func TestServeStats(t *testing.T) {
	s, ts := newTestServer(t, Config{NumProcs: 1, PoolSize: 1})
	if err := s.Register("g", gen.Spec{Kind: "star", N: 100}); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/spantree", SpanTreeRequest{Graph: "g"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("spantree: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Served != 1 || st.NumCPU < 1 || st.GOMAXPROCS < 1 || len(st.Graphs) != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
