// Package serve is the HTTP/JSON front end of the repository: spanning
// trees as a service. A Server owns a registry of named CSR graphs,
// each with a fixed-size pool of spantree.Sessions (pre-spawned
// worker teams, pre-provisioned buffers), and executes concurrent
// /v1/spantree requests on those pools with zero steady-state heap
// allocations in the algorithm itself.
//
// Admission control reuses the runtime's fault plumbing end to end: an
// adaptive AIMD concurrency limit (see limiter.go) rejects excess load
// with a typed 429 and a Retry-After hint before any work starts, each
// admitted request runs under a context whose deadline is the client's
// requested timeout clamped by the server cap, and the session layer
// translates context expiry into the typed fault.ErrDeadline/
// ErrCanceled, which the handlers map onto 504 (deadline) and 499
// (client gone). A run aborted for exceeding its stall budget maps onto
// a retryable 503 (stalled). Every error response is a typed JSON object
// {"error": code, "message": ...} so load generators can assert on
// exact rejection classes.
//
// The resilience layer on top of that plumbing:
//
//   - A per-graph degradation ladder (ladder.go) steps a graph whose
//     runs keep stalling or blowing deadlines down to simpler execution
//     (half the workers → sequential) and climbs back after a
//     cool-down.
//   - A crash-safe registry journal (journal.go) replays the graph set
//     across a SIGKILL.
//   - /v1/healthz is pure liveness; /v1/readyz is readiness and turns
//     503 while the server drains or any graph is degraded.
//   - In chaos builds, a seeded per-request fault injector exercises
//     all of the above (Config.ChaosSeed).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spantree"
	"spantree/internal/chaos"
	"spantree/internal/gen"
)

// Error codes returned in the "error" field of failure responses.
const (
	CodeBadRequest    = "bad_request"
	CodeNotFound      = "not_found"
	CodeConflict      = "conflict"
	CodeGraphTooLarge = "graph_too_large"
	CodeOverloaded    = "overloaded"
	CodeDeadline      = "deadline"
	CodeCanceled      = "canceled"
	CodeInternal      = "internal"
	// CodeStalled: the stuck-run watchdog aborted the run — retryable,
	// served as 503 with a Retry-After hint.
	CodeStalled = "stalled"
	// CodeJournal: the registry journal append failed, so the mutation
	// was aborted and the registry is unchanged.
	CodeJournal = "journal_failed"
	// CodeDraining / CodeDegraded: the readiness probe's typed 503s.
	CodeDraining = "draining"
	CodeDegraded = "degraded"
)

// StatusClientClosedRequest is the non-standard (nginx) status the
// server uses when the client vanished mid-run; the client never sees
// it, but access logs and tests do.
const StatusClientClosedRequest = 499

// Config sizes a Server.
type Config struct {
	// NumProcs is the per-session virtual processor count; 0 means
	// runtime.NumCPU capped at 4 (serving wants low per-request latency
	// variance, not maximum single-request speedup).
	NumProcs int
	// PoolSize is the number of sessions per registered graph;
	// 0 means 2.
	PoolSize int
	// MaxInFlight bounds concurrently admitted /v1/spantree requests
	// across all graphs; excess load is rejected with a typed 429.
	// 0 means 2*PoolSize.
	MaxInFlight int
	// MaxVertices rejects graph registrations with more vertices than
	// this, or with an edge bound (gen.EdgeBound) above
	// edgesPerVertex*MaxVertices, with a typed 413 — the
	// oversized-request guard. 0 means 1<<22.
	MaxVertices int
	// MaxTimeout caps the per-request deadline a client may ask for;
	// it is also the default when a request carries no timeout_ms.
	// 0 means 10s.
	MaxTimeout time.Duration
	// StallBudget is every session's SessionOptions.StallBudget: a run
	// in which no worker advances for this long is aborted with the
	// typed 503 (stalled) instead of burning its whole deadline. The
	// request's own goroutine watches it; no goroutine is added.
	// 0 disables.
	StallBudget time.Duration
	// CoolDown is how long a degraded graph must run failure-free
	// before climbing back up one rung of the degradation ladder.
	// 0 means 30s.
	CoolDown time.Duration
	// ChaosSeed, when nonzero in a chaos-tagged build, arms the seeded
	// per-request fault injector with chaos.DefaultServeConfig. Ignored
	// (no injector exists) in default builds.
	ChaosSeed uint64
}

func (c Config) withDefaults() Config {
	if c.NumProcs == 0 {
		c.NumProcs = runtime.NumCPU()
		if c.NumProcs > 4 {
			c.NumProcs = 4
		}
	}
	if c.PoolSize == 0 {
		c.PoolSize = 2
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * c.PoolSize
	}
	if c.MaxVertices == 0 {
		c.MaxVertices = 1 << 22
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 10 * time.Second
	}
	if c.CoolDown == 0 {
		c.CoolDown = 30 * time.Second
	}
	return c
}

// Server is the HTTP front end. Create with New, serve via http.Server
// (Server implements http.Handler), release with Close.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.RWMutex
	graphs  map[string]*entry
	closed  bool
	started time.Time

	// lim is the adaptive admission limit: a slot is claimed per
	// /v1/spantree request before any session work, non-blocking —
	// admission failure is an immediate typed 429, never a queue. The
	// limit itself tracks observed tail latency (limiter.go).
	lim *aimdLimiter

	// jn is the crash-safe registry journal (nil until OpenJournal).
	jn *journal
	// inj is the serving-layer chaos injector (nil outside chaos builds
	// or without a seed); reqID numbers requests for its seeded streams.
	inj   *chaos.ServeInjector
	reqID atomic.Uint64

	draining atomic.Bool // BeginDrain was called; readiness is 503

	served       atomic.Int64 // completed spantree runs
	rejected     atomic.Int64 // 429s
	deadlines    atomic.Int64 // 504s
	canceled     atomic.Int64 // client-gone aborts
	stallTrips   atomic.Int64 // watchdog-aborted runs (typed 503 stalled)
	degradeSteps atomic.Int64 // ladder step-downs across all graphs
	panics       atomic.Int64 // recovered handler panics (typed 500s)
}

// New builds a Server with the given config.
func New(cfg Config) *Server {
	c := cfg.withDefaults()
	s := &Server{
		cfg:     c,
		graphs:  make(map[string]*entry),
		started: time.Now(),
	}
	// The tail-latency budget driving the adaptive limit: half the
	// deadline cap — when the observed tail crosses it, the next step
	// is the 504 cliff, so the limit backs off first.
	s.lim = newAIMDLimiter(c.MaxInFlight, c.MaxTimeout/2)
	if c.ChaosSeed != 0 {
		s.inj = chaos.NewServe(chaos.DefaultServeConfig(c.ChaosSeed))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("POST /v1/drain", s.handleDrain)
	mux.HandleFunc("DELETE /v1/drain", s.handleUndrain)
	mux.HandleFunc("GET /v1/graphs", s.handleListGraphs)
	mux.HandleFunc("POST /v1/graphs", s.handleRegisterGraph)
	mux.HandleFunc("DELETE /v1/graphs/{name}", s.handleEvictGraph)
	mux.HandleFunc("POST /v1/spantree", s.handleSpanTree)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux = mux
	return s
}

// OpenJournal attaches the crash-safe registry journal at path: the
// file is replayed first — rebuilding the graph set (pools and all)
// that a previous process was serving when it died — and every
// subsequent registration or eviction is appended and fsynced before
// it commits to the in-memory registry. Call once, before serving
// traffic.
func (s *Server) OpenJournal(path string) error {
	j, names, live, err := openJournal(path, s.inj)
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, err := s.register(name, live[name], false); err != nil {
			j.Close()
			return fmt.Errorf("journal replay of graph %q: %w", name, err)
		}
	}
	s.jn = j
	return nil
}

// BeginDrain flips the readiness probe to the typed 503 (draining) so
// load balancers rotate this instance out while in-flight and
// already-routed requests keep being served. Shutdown sequence:
// BeginDrain, wait a probe period, then http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// EndDrain cancels a drain (a rollback that keeps the instance in
// rotation after all).
func (s *Server) EndDrain() { s.draining.Store(false) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close evicts every graph, retiring the parked worker teams (in-flight
// sessions retire on release), and closes the journal.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	entries := make([]*entry, 0, len(s.graphs))
	for _, e := range s.graphs {
		entries = append(entries, e)
	}
	s.graphs = make(map[string]*entry)
	s.mu.Unlock()
	for _, e := range entries {
		e.closePools()
	}
	s.jn.Close()
}

// Register builds and registers a named graph outside HTTP (the CLI's
// preload path). Journaled like the HTTP path.
func (s *Server) Register(name string, spec gen.Spec) error {
	_, err := s.register(name, spec, true)
	return err
}

// register builds the graph and its rung-0 session pool, then commits.
// With a journal attached and journaled true, the op is appended and
// fsynced inside the commit lock, before the map insert — a mutation
// the caller sees acknowledged is on disk, and one the journal refused
// never happened. Replay passes journaled=false (those ops are already
// in the file).
func (s *Server) register(name string, spec gen.Spec, journaled bool) (*entry, error) {
	if name == "" {
		return nil, fmt.Errorf("empty graph name")
	}
	if spec.N > s.cfg.MaxVertices {
		return nil, errTooLarge{n: int64(spec.N), max: int64(s.cfg.MaxVertices)}
	}
	if m, budget := gen.EdgeBound(spec), edgesPerVertex*int64(s.cfg.MaxVertices); m > budget {
		return nil, errTooLarge{n: m, max: budget, edges: true}
	}
	s.mu.RLock()
	_, exists := s.graphs[name]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("server closed")
	}
	if exists {
		return nil, errConflict{name: name}
	}
	g, err := gen.Generate(spec)
	if err != nil {
		return nil, err
	}
	if g.NumVertices() > s.cfg.MaxVertices {
		return nil, errTooLarge{n: int64(g.NumVertices()), max: int64(s.cfg.MaxVertices)}
	}
	base := spantree.SessionOptions{
		NumProcs:    s.cfg.NumProcs,
		StallBudget: s.cfg.StallBudget,
	}
	pool, err := spantree.NewSessionPool(g, base, s.cfg.PoolSize)
	if err != nil {
		return nil, err
	}
	e := &entry{
		name: name, spec: spec, g: g,
		base: base, poolSize: s.cfg.PoolSize,
	}
	e.pools[0] = pool
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		pool.Close()
		return nil, fmt.Errorf("server closed")
	}
	if _, dup := s.graphs[name]; dup {
		s.mu.Unlock()
		pool.Close()
		return nil, errConflict{name: name}
	}
	if journaled {
		if err := s.jn.AppendRegister(name, spec); err != nil {
			s.mu.Unlock()
			pool.Close()
			return nil, err
		}
	}
	s.graphs[name] = e
	s.mu.Unlock()
	return e, nil
}

// edgesPerVertex caps a registration's edge bound at this multiple of
// MaxVertices: the density of the paper's densest input, 20M edges on
// 1M vertices. Every generator that takes its edge count from the
// request (random's M, geometric's N·K, complete's N(N-1)/2) is held
// to it before it allocates; a runtime out-of-memory is fatal, not a
// panic that recoverPanic could turn into a 500.
const edgesPerVertex = 20

type errTooLarge struct {
	n, max int64
	edges  bool
}

func (e errTooLarge) Error() string {
	if e.edges {
		return fmt.Sprintf("graph may have up to %d edges, server cap is %d", e.n, e.max)
	}
	return fmt.Sprintf("graph has %d vertices, server cap is %d", e.n, e.max)
}

type errConflict struct{ name string }

func (e errConflict) Error() string { return fmt.Sprintf("graph %q already registered", e.name) }

// IsConflict reports whether err is a duplicate-registration conflict
// (the CLI's journal-restore preload path tolerates these).
func IsConflict(err error) bool {
	var c errConflict
	return errors.As(err, &c)
}

// lookup returns the entry for name, or nil.
func (s *Server) lookup(name string) *entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.graphs[name]
}

// --- Wire types -----------------------------------------------------

// ErrorBody is every failure response.
type ErrorBody struct {
	Error   string `json:"error"`
	Message string `json:"message"`
}

// RegisterRequest is the POST /v1/graphs body.
type RegisterRequest struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	N    int    `json:"n"`
	M    int    `json:"m,omitempty"`
	K    int    `json:"k,omitempty"`
	Seed uint64 `json:"seed,omitempty"`
	// RandomLabel applies the paper's random-relabeling variant.
	RandomLabel bool `json:"random_label,omitempty"`
}

// GraphInfo describes one registered graph.
type GraphInfo struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	PoolSize int    `json:"pool_size"`
	NumProcs int    `json:"num_procs"`
	// Layout is the CSR layout the pool's sessions read, always
	// "compact". It stays because the benchmark under bench/ parses it.
	Layout string `json:"layout"`
	// Rung is the graph's current position on the degradation ladder
	// (0 = full configured execution; see ladder.go).
	Rung int `json:"rung"`
}

// GraphListResponse is the GET /v1/graphs body.
type GraphListResponse struct {
	Graphs []GraphInfo `json:"graphs"`
}

// SpanTreeRequest is the POST /v1/spantree body.
type SpanTreeRequest struct {
	Graph string `json:"graph"`
	Seed  uint64 `json:"seed,omitempty"`
	// TimeoutMS is the client's deadline for the run, clamped by the
	// server's MaxTimeout; 0 means the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IncludeParent returns the full parent array (n entries — large).
	IncludeParent bool `json:"include_parent,omitempty"`
}

// SpanTreeResponse is the POST /v1/spantree success body.
type SpanTreeResponse struct {
	Graph     string  `json:"graph"`
	N         int     `json:"n"`
	Roots     int     `json:"roots"`
	TreeEdges int     `json:"tree_edges"`
	ElapsedUS int64   `json:"elapsed_us"`
	StubSize  int     `json:"stub_size"`
	Steals    int64   `json:"steals"`
	Degraded  bool    `json:"degraded,omitempty"`
	Parent    []int32 `json:"parent,omitempty"`
}

// StatsResponse is the GET /v1/stats body.
type StatsResponse struct {
	UptimeMS   int64 `json:"uptime_ms"`
	Served     int64 `json:"served"`
	Rejected   int64 `json:"rejected"`
	Deadlines  int64 `json:"deadlines"`
	Canceled   int64 `json:"canceled"`
	InFlight   int   `json:"in_flight"`
	Goroutines int   `json:"goroutines"`
	NumCPU     int   `json:"num_cpu"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	// AdmitLimit is the adaptive admission limit's current value
	// (ceiling MaxInFlight; lower when the AIMD feedback backed off).
	AdmitLimit int64 `json:"admit_limit"`
	// StallTrips counts runs the stuck-run watchdog aborted (503s).
	StallTrips int64 `json:"stall_trips"`
	// DegradeSteps counts ladder step-downs across all graphs.
	DegradeSteps int64 `json:"degrade_steps"`
	// Panics counts handler panics recovered into typed 500s.
	Panics int64 `json:"panics"`
	// ChaosInjections counts injected serving faults (chaos builds).
	ChaosInjections int64 `json:"chaos_injections,omitempty"`
	// Draining reports whether BeginDrain flipped readiness.
	Draining bool        `json:"draining"`
	Graphs   []GraphInfo `json:"graphs"`
}

// --- Handlers -------------------------------------------------------

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Error: code, Message: msg})
}

// handleHealthz is pure liveness: the process is up and the mux is
// answering. It stays 200 through drains and degradation — restarting a
// draining instance is exactly the wrong reaction.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: whether a load balancer should route new
// traffic here. Draining and degraded both answer the typed 503 —
// in-flight requests still complete, but new load belongs elsewhere.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		return
	}
	if rung := s.maxRungHeld(); rung > 0 {
		writeError(w, http.StatusServiceUnavailable, CodeDegraded,
			fmt.Sprintf("a graph is degraded to rung %d", rung))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleDrain / handleUndrain are the ops surface behind the readiness
// split: a preStop hook POSTs /v1/drain, probes see the 503, in-flight
// work finishes; DELETE rolls the drain back.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.BeginDrain()
	writeJSON(w, http.StatusOK, map[string]string{"status": "draining"})
}

func (s *Server) handleUndrain(w http.ResponseWriter, r *http.Request) {
	s.EndDrain()
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// maxBodyBytes bounds request bodies; graph registrations and run
// requests are both tiny.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	// A panic while building the graph or its pool surfaces as a typed
	// 500, never a transport-level drop.
	defer s.recoverPanic(w)
	var req RegisterRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	e, err := s.register(req.Name, gen.Spec{
		Kind: req.Kind, N: req.N, M: req.M, K: req.K,
		Seed: req.Seed, RandomLabel: req.RandomLabel,
	}, true)
	if err != nil {
		switch {
		case errors.Is(err, errJournal):
			writeError(w, http.StatusInternalServerError, CodeJournal, err.Error())
		default:
			switch err.(type) {
			case errTooLarge:
				writeError(w, http.StatusRequestEntityTooLarge, CodeGraphTooLarge, err.Error())
			case errConflict:
				writeError(w, http.StatusConflict, CodeConflict, err.Error())
			default:
				writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
			}
		}
		return
	}
	writeJSON(w, http.StatusCreated, s.graphInfo(e))
}

func (s *Server) graphInfo(e *entry) GraphInfo {
	return GraphInfo{
		Name:     e.name,
		Kind:     e.spec.Kind,
		N:        e.g.NumVertices(),
		M:        e.g.NumEdges(),
		PoolSize: e.poolSize,
		NumProcs: s.cfg.NumProcs,
		Layout:   "compact",
		Rung:     int(e.rung.Load()),
	}
}

// listGraphs returns the registry in name order — deterministic output
// is what lets the restart test compare GET /v1/graphs byte for byte.
func (s *Server) listGraphs() []GraphInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]GraphInfo, 0, len(s.graphs))
	for _, e := range s.graphs {
		out = append(out, s.graphInfo(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, GraphListResponse{Graphs: s.listGraphs()})
}

func (s *Server) handleEvictGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	e, ok := s.graphs[name]
	if ok {
		// Journal before the map delete: an eviction the journal refused
		// never happened, and one it accepted survives a crash.
		if err := s.jn.AppendEvict(name); err != nil {
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, CodeJournal, err.Error())
			return
		}
		delete(s.graphs, name)
	}
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("graph %q not registered", name))
		return
	}
	// Free sessions retire now; in-flight ones when their request ends.
	e.closePools()
	writeJSON(w, http.StatusOK, map[string]string{"evicted": name})
}

func (s *Server) handleSpanTree(w http.ResponseWriter, r *http.Request) {
	// Recover first so a handler panic — in chaos builds, the injected
	// one — surfaces as a typed 500, never a transport-level drop.
	defer s.recoverPanic(w)
	var req SpanTreeRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	// Admission first: a non-blocking slot claim against the adaptive
	// limit. Excess load is turned away immediately with the typed 429
	// and a Retry-After hint rather than queued into a latency cliff.
	if !s.lim.Acquire() {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, CodeOverloaded,
			fmt.Sprintf("admission limit of %d requests in flight reached", s.lim.Limit()))
		return
	}
	start := time.Now()
	overloaded := false // stall/deadline outcome; feeds the AIMD decrease
	defer func() { s.lim.Release(time.Since(start), overloaded) }()

	e := s.lookup(req.Graph)
	if e == nil {
		writeError(w, http.StatusNotFound, CodeNotFound, fmt.Sprintf("graph %q not registered", req.Graph))
		return
	}
	timeout := s.cfg.MaxTimeout
	if req.TimeoutMS > 0 {
		if t := time.Duration(req.TimeoutMS) * time.Millisecond; t < timeout {
			timeout = t
		}
	}
	// The request context carries both the client's disconnect and the
	// deadline; the session layer's fault plumbing translates them into
	// the typed errors mapped below.
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Serving-layer chaos: at most one injected fault per request, drawn
	// from the request's own seeded stream (nil injector draws nothing).
	switch s.inj.Request(s.reqID.Add(1)) {
	case chaos.FaultPanic:
		panic(chaos.InjectedPanic{Worker: -1, Point: chaos.PointNone})
	case chaos.FaultStall:
		// The wedged backend: nothing progresses until the context
		// expires, then the failure is typed like any real stall-out.
		<-ctx.Done()
		overloaded = s.failFromContext(w, ctx.Err())
		s.noteFailure(e, overloaded)
		return
	case chaos.FaultSlow:
		t := time.NewTimer(s.inj.SlowDelay())
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			overloaded = s.failFromContext(w, ctx.Err())
			s.noteFailure(e, overloaded)
			return
		}
	}

	pool := e.poolFor()
	sess, err := pool.Acquire(ctx)
	if err != nil {
		overloaded = s.failFromContext(w, err)
		s.noteFailure(e, overloaded)
		return
	}
	res, err := sess.FindContext(ctx, req.Seed)
	if err != nil {
		pool.Release(sess)
		overloaded = s.failFromContext(w, err)
		s.noteFailure(e, overloaded)
		return
	}
	resp := SpanTreeResponse{
		Graph:     req.Graph,
		N:         len(res.Parent),
		Roots:     res.Roots,
		TreeEdges: res.TreeEdges,
		ElapsedUS: res.Elapsed.Microseconds(),
	}
	ws := res.WorkStealing
	resp.StubSize = ws.StubSize
	resp.Steals = ws.Steals
	resp.Degraded = ws.DegradedToSeq
	if req.IncludeParent {
		resp.Parent = res.Parent
	}
	// The response borrows the session's parent buffer; the encoder
	// consumes it before the release returns the buffers to the pool.
	writeJSON(w, http.StatusOK, resp)
	pool.Release(sess)
	s.served.Add(1)
	s.noteSuccess(e)
}

// recoverPanic converts a handler panic into the typed 500. The
// admission slot was already released by the deferred limiter release
// (registered after this recover, so it runs first).
func (s *Server) recoverPanic(w http.ResponseWriter) {
	if v := recover(); v != nil {
		s.panics.Add(1)
		writeError(w, http.StatusInternalServerError, CodeInternal, fmt.Sprintf("panic: %v", v))
	}
}

// failFromContext maps the fault-layer's typed errors (and raw context
// errors from Acquire) onto HTTP statuses. The returned bool reports
// whether the failure was a stall or deadline blowout — the signals
// that feed the AIMD decrease and the degradation ladder; client
// cancellation and eviction races say nothing about the backend.
func (s *Server) failFromContext(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, spantree.ErrStalled):
		s.stallTrips.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, CodeStalled,
			"run stalled; the watchdog aborted it — retry on another instance")
		return true
	case errors.Is(err, spantree.ErrDeadline) || errors.Is(err, context.DeadlineExceeded):
		s.deadlines.Add(1)
		writeError(w, http.StatusGatewayTimeout, CodeDeadline, "run exceeded its deadline")
		return true
	case errors.Is(err, spantree.ErrCanceled) || errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		writeError(w, StatusClientClosedRequest, CodeCanceled, "client closed the request")
		return false
	case errors.Is(err, spantree.ErrSessionClosed):
		writeError(w, http.StatusNotFound, CodeNotFound, "graph evicted mid-request")
		return false
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return false
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		UptimeMS:        time.Since(s.started).Milliseconds(),
		Served:          s.served.Load(),
		Rejected:        s.rejected.Load(),
		Deadlines:       s.deadlines.Load(),
		Canceled:        s.canceled.Load(),
		InFlight:        int(s.lim.InFlight()),
		Goroutines:      runtime.NumGoroutine(),
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		AdmitLimit:      s.lim.Limit(),
		StallTrips:      s.stallTrips.Load(),
		DegradeSteps:    s.degradeSteps.Load(),
		Panics:          s.panics.Load(),
		ChaosInjections: s.inj.Injections(),
		Draining:        s.draining.Load(),
		Graphs:          s.listGraphs(),
	})
}
