package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spantree/internal/serve"
	"spantree/internal/stats"
	"spantree/internal/xrand"
)

// RunLoadGen is the entry point of cmd/loadgen: drive a running
// spantreed instance with closed-loop (fixed concurrency) or open-loop
// (fixed arrival rate) load, summarize per-request latency as
// p50/p99/p999 percentiles, and optionally write a versioned serving
// benchmark artifact (spantree/serving/v1) for cmd/benchcmp to gate.
//
// -probes additionally exercises the server's typed rejection paths —
// one cancellation (a request whose deadline expires mid-run, expecting
// the typed 504), one oversized registration (expecting the typed 413),
// a readiness check (GET /v1/readyz must be 200), and a drain cycle
// (POST /v1/drain flips readiness to the typed 503, DELETE restores
// it) — and fails if any returns anything else.
//
// -retry enables client-side resilience: requests answered 429 or 503
// (or lost to transport errors) are retried up to that many times with
// jittered exponential backoff, cooperating with the server's adaptive
// admission control instead of hammering it. -hedge optionally sends a
// second copy of a request whose first attempt is still unanswered
// after the given delay, taking whichever response lands first —
// tail-latency insurance against a single slow session.
func RunLoadGen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseURL   = fs.String("url", "", "base URL of the spantreed instance (e.g. http://127.0.0.1:8080)")
		graphName = fs.String("graph", "bench", "name of the graph to run against")
		register  = fs.String("register", "", "register the graph first: kind:n[:m[:k[:seed]]] (skipped when already registered)")
		mode      = fs.String("mode", "closed", "load shape: closed (fixed concurrency) or open (fixed arrival rate)")
		concStr   = fs.String("c", "1", "closed loop: comma-separated concurrency levels, one scenario each (e.g. 1,4,8)")
		requests  = fs.Int("n", 100, "closed loop: requests per scenario")
		rate      = fs.Float64("rate", 50, "open loop: arrival rate in requests/second")
		duration  = fs.Duration("duration", 3*time.Second, "open loop: scenario length")
		warmup    = fs.Int("warmup", 10, "untimed warmup requests before the first scenario")
		timeoutMS = fs.Int("timeout-ms", 5000, "per-request deadline sent to the server")
		seed      = fs.Uint64("seed", 1, "base seed; each request perturbs it")
		outPath   = fs.String("out", "", "write the serving benchmark artifact to this path (e.g. results/BENCH_serving.json)")
		strict    = fs.Bool("strict", false, "fail on any non-200 response in the load scenarios (CI smoke mode)")
		probes    = fs.Bool("probes", false, "run the typed-rejection probes (cancellation 504, oversized 413)")
		slowN     = fs.Int("probe-slow-n", 1<<20, "vertex count of the chain graph the cancellation probe registers")
		overN     = fs.Int("probe-oversize-n", 1<<23, "vertex count of the oversized registration (must exceed the server's cap)")
		retries   = fs.Int("retry", 0, "retry a 429/503/transport-failed request up to this many times with jittered exponential backoff (0 disables)")
		hedge     = fs.Duration("hedge", 0, "send a hedged duplicate of a request still unanswered after this delay, first response wins (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseURL == "" {
		return fmt.Errorf("loadgen: -url is required")
	}
	base := strings.TrimRight(*baseURL, "/")
	client := &http.Client{Timeout: time.Duration(*timeoutMS)*time.Millisecond + 10*time.Second}
	// Registration builds the graph and warms a session pool server-side
	// before responding — minutes of work for big graphs on a loaded
	// host, so it gets its own generous budget.
	regClient := &http.Client{Timeout: 5 * time.Minute}
	// A connection the transport dialed but never used counts as busy to
	// the server's graceful shutdown for its first 5 s; close every idle
	// one on return so a daemon shut down right after a run stops at once.
	defer client.CloseIdleConnections()
	defer regClient.CloseIdleConnections()

	if *register != "" {
		if err := registerGraph(regClient, base, *graphName, *register); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "registered %s (%s)\n", *graphName, *register)
	}
	rq := &requester{
		client: client, base: base, graph: *graphName,
		timeoutMS: *timeoutMS, retries: *retries, hedge: *hedge,
	}
	for i := 0; i < *warmup; i++ {
		if _, _, err := rq.do(*seed + uint64(i)); err != nil {
			return fmt.Errorf("loadgen: warmup request %d: %w", i, err)
		}
	}

	art := &stats.ServingArtifact{Meta: map[string]string{
		"url":        base,
		"graph":      *graphName,
		"timeout_ms": strconv.Itoa(*timeoutMS),
	}}
	switch *mode {
	case "closed":
		for _, cs := range strings.Split(*concStr, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(cs))
			if err != nil || c < 1 {
				return fmt.Errorf("loadgen: bad concurrency %q", cs)
			}
			sc, err := closedLoop(rq, c, *requests, *seed)
			if err != nil {
				return err
			}
			reportScenario(stdout, sc)
			if *strict && sc.OK != sc.Requests {
				return fmt.Errorf("loadgen: strict mode: %s had %d/%d non-200 responses (rejected=%d deadlines=%d errors=%d)",
					sc.Name, sc.Requests-sc.OK, sc.Requests, sc.Rejected, sc.Deadlines, sc.Errors)
			}
			art.Scenarios = append(art.Scenarios, sc)
		}
	case "open":
		sc, err := openLoop(rq, *rate, *duration, *seed)
		if err != nil {
			return err
		}
		reportScenario(stdout, sc)
		if *strict && sc.OK != sc.Requests {
			return fmt.Errorf("loadgen: strict mode: %s had %d/%d non-200 responses",
				sc.Name, sc.Requests-sc.OK, sc.Requests)
		}
		art.Scenarios = append(art.Scenarios, sc)
	default:
		return fmt.Errorf("loadgen: unknown -mode %q (want closed or open)", *mode)
	}
	stampServerState(client, base, art)

	if *probes {
		if err := runProbes(client, regClient, base, *slowN, *overN, stdout); err != nil {
			return err
		}
	}
	if *outPath != "" {
		if err := art.WriteFile(*outPath); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d scenarios)\n", *outPath, len(art.Scenarios))
	}
	return nil
}

// registerGraph posts the graph spec, treating "already registered" as
// success so reruns against a long-lived server work.
func registerGraph(client *http.Client, base, name, spec string) error {
	full, parsed, err := parseGraphSpec(name + "=" + spec)
	if err != nil {
		return err
	}
	body, _ := json.Marshal(serve.RegisterRequest{
		Name: full, Kind: parsed.Kind, N: parsed.N, M: parsed.M, K: parsed.K, Seed: parsed.Seed,
	})
	resp, err := client.Post(base+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("loadgen: registering %s: %w", name, err)
	}
	defer drain(resp)
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusConflict {
		return nil
	}
	return fmt.Errorf("loadgen: registering %s: status %d", name, resp.StatusCode)
}

// issueSpanTree sends one run request and classifies the outcome by
// status code. The error return is transport-level only.
func issueSpanTree(client *http.Client, base, graph string, seed uint64, timeoutMS int) (status int, elapsed time.Duration, err error) {
	body, _ := json.Marshal(serve.SpanTreeRequest{Graph: graph, Seed: seed, TimeoutMS: timeoutMS})
	start := time.Now()
	resp, err := client.Post(base+"/v1/spantree", "application/json", bytes.NewReader(body))
	elapsed = time.Since(start)
	if err != nil {
		return 0, elapsed, err
	}
	drain(resp)
	return resp.StatusCode, elapsed, nil
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// requester issues span-tree requests with optional client-side
// resilience: bounded retries with jittered exponential backoff on
// overload answers (429/503) and transport failures, and optional
// hedging of slow requests. It is safe for concurrent use.
type requester struct {
	client    *http.Client
	base      string
	graph     string
	timeoutMS int
	retries   int           // extra attempts per request (0 = none)
	hedge     time.Duration // hedged-duplicate delay (0 = off)
	retried   atomic.Int64  // retries + hedges issued
}

// backoff bounds: full jitter in [0, cur), doubling 5ms → 250ms. The
// cap keeps a retried request inside a human-scale deadline; the jitter
// decorrelates clients that were rejected by the same overload spike.
const (
	retryBackoffBase = 5 * time.Millisecond
	retryBackoffCap  = 250 * time.Millisecond
)

// do issues one logical request, retrying per the requester's policy.
// The returned latency spans all attempts and backoff sleeps — the
// client-observed time-to-answer, which is what the percentiles should
// price when retries are on.
func (rq *requester) do(seed uint64) (status int, elapsed time.Duration, err error) {
	start := time.Now()
	var rng *xrand.Rand // lazily seeded: the no-retry path never draws
	backoff := retryBackoffBase
	for attempt := 0; ; attempt++ {
		status, _, err = rq.attempt(seed)
		retryable := err != nil ||
			status == http.StatusTooManyRequests ||
			status == http.StatusServiceUnavailable
		if !retryable || attempt >= rq.retries {
			return status, time.Since(start), err
		}
		rq.retried.Add(1)
		if rng == nil {
			rng = xrand.New(seed).Split(0xb0ff0e11)
		}
		time.Sleep(time.Duration(rng.Float64() * float64(backoff)))
		if backoff < retryBackoffCap {
			backoff *= 2
		}
	}
}

// attempt is one wire attempt, hedged when configured: if the first
// copy has not answered within the hedge delay, a duplicate is sent and
// the first response to land wins. Runs are idempotent (same graph,
// same seed), so the losing copy is harmless; its response is drained
// by issueSpanTree as usual.
func (rq *requester) attempt(seed uint64) (int, time.Duration, error) {
	if rq.hedge <= 0 {
		return issueSpanTree(rq.client, rq.base, rq.graph, seed, rq.timeoutMS)
	}
	type result struct {
		status  int
		elapsed time.Duration
		err     error
	}
	ch := make(chan result, 2)
	issue := func() {
		s, e, err := issueSpanTree(rq.client, rq.base, rq.graph, seed, rq.timeoutMS)
		ch <- result{s, e, err}
	}
	go issue()
	timer := time.NewTimer(rq.hedge)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.status, r.elapsed, r.err
	case <-timer.C:
		rq.retried.Add(1)
		go issue()
		r := <-ch
		return r.status, r.elapsed, r.err
	}
}

// takeRetries returns the retry/hedge count issued since the last call.
func (rq *requester) takeRetries() int {
	return int(rq.retried.Swap(0))
}

// scenarioRecorder accumulates classified outcomes from concurrent
// request goroutines.
type scenarioRecorder struct {
	mu        sync.Mutex
	latencies []int64
	sc        stats.ServingScenario
}

func (r *scenarioRecorder) record(status int, elapsed time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sc.Requests++
	switch {
	case err != nil:
		r.sc.Errors++
	case status == http.StatusOK:
		r.sc.OK++
		r.latencies = append(r.latencies, elapsed.Nanoseconds())
	case status == http.StatusTooManyRequests:
		r.sc.Rejected++
	case status == http.StatusServiceUnavailable:
		// The watchdog's typed stall answer (and its drain/degrade
		// cousins): the server shed the run, the client's retries (if
		// any) did not recover it.
		r.sc.Stalled++
	case status == http.StatusGatewayTimeout:
		r.sc.Deadlines++
	default:
		r.sc.Errors++
	}
}

func (r *scenarioRecorder) finish(total time.Duration) stats.ServingScenario {
	r.sc.DurationNS = total.Nanoseconds()
	if total > 0 {
		r.sc.ThroughputRPS = float64(r.sc.OK) / total.Seconds()
	}
	r.sc.LatencySummary(r.latencies)
	return r.sc
}

// closedLoop runs total requests at a fixed concurrency: each of c
// workers issues the next request as soon as its previous one finishes.
func closedLoop(rq *requester, c, total int, seed uint64) (stats.ServingScenario, error) {
	rec := &scenarioRecorder{sc: stats.ServingScenario{
		Name: fmt.Sprintf("closed-c%d", c), Mode: "closed", Concurrency: c, Graph: rq.graph,
	}}
	rq.takeRetries() // scenario-scoped count
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(total) {
					return
				}
				rec.record(rq.do(seed + uint64(i)*2654435761))
			}
		}()
	}
	wg.Wait()
	rec.sc.Retries = rq.takeRetries()
	return rec.finish(time.Since(start)), nil
}

// openLoop fires requests on a fixed arrival schedule for the given
// duration, regardless of completions (the latency-under-load shape).
func openLoop(rq *requester, rate float64, d time.Duration, seed uint64) (stats.ServingScenario, error) {
	if rate <= 0 {
		return stats.ServingScenario{}, fmt.Errorf("loadgen: -rate must be positive")
	}
	rec := &scenarioRecorder{sc: stats.ServingScenario{
		Name: fmt.Sprintf("open-r%g", rate), Mode: "open", RateRPS: rate, Graph: rq.graph,
	}}
	rq.takeRetries() // scenario-scoped count
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
	start := time.Now()
	for i := uint64(0); time.Since(start) < d; i++ {
		<-ticker.C
		wg.Add(1)
		go func(i uint64) {
			defer wg.Done()
			rec.record(rq.do(seed + i*2654435761))
		}(i)
	}
	wg.Wait()
	rec.sc.Retries = rq.takeRetries()
	return rec.finish(time.Since(start)), nil
}

func reportScenario(w io.Writer, sc stats.ServingScenario) {
	fmt.Fprintf(w, "%s: %d requests, %d ok, %d rejected, %d deadline, %d error  %.1f req/s  p50=%.3fms p99=%.3fms p999=%.3fms max=%.3fms",
		sc.Name, sc.Requests, sc.OK, sc.Rejected, sc.Deadlines, sc.Errors, sc.ThroughputRPS,
		float64(sc.P50NS)/1e6, float64(sc.P99NS)/1e6, float64(sc.P999NS)/1e6, float64(sc.MaxNS)/1e6)
	if sc.Stalled > 0 {
		fmt.Fprintf(w, "  stalled=%d", sc.Stalled)
	}
	if sc.Retries > 0 {
		fmt.Fprintf(w, "  retries=%d", sc.Retries)
	}
	fmt.Fprintln(w)
}

// stampServerState records the server's post-run degradation state into
// the artifact meta, so benchcmp can warn when a baseline taken at full
// configuration is compared against a run the server finished degraded.
// Best-effort: a server that vanished mid-teardown just leaves the meta
// unstamped.
func stampServerState(client *http.Client, base string, art *stats.ServingArtifact) {
	resp, err := client.Get(base + "/v1/graphs")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var list serve.GraphListResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&list) != nil {
		return
	}
	rung := 0
	for _, g := range list.Graphs {
		if g.Rung > rung {
			rung = g.Rung
		}
	}
	art.Meta["degrade_rung"] = strconv.Itoa(rung)
}

// runProbes exercises the typed rejection paths end to end.
func runProbes(client, regClient *http.Client, base string, slowN, overN int, stdout io.Writer) error {
	// Oversized registration: the server must turn it away with the
	// typed 413 before committing any memory.
	body, _ := json.Marshal(serve.RegisterRequest{Name: "probe-oversize", Kind: "chain", N: overN})
	resp, err := client.Post(base+"/v1/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("loadgen: oversize probe: %w", err)
	}
	code, err := decodeErrorCode(resp)
	if err != nil {
		return fmt.Errorf("loadgen: oversize probe: %w", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || code != serve.CodeGraphTooLarge {
		return fmt.Errorf("loadgen: oversize probe: status %d code %q, want 413 %q",
			resp.StatusCode, code, serve.CodeGraphTooLarge)
	}
	fmt.Fprintf(stdout, "probe oversize: 413 %s (n=%d rejected)\n", code, overN)

	// Cancellation: a run on a long chain with a 1ms deadline cannot
	// finish — the fault plumbing must cancel it mid-traversal and the
	// server must answer with the typed 504.
	if err := registerGraph(regClient, base, "probe-slow", fmt.Sprintf("chain:%d", slowN)); err != nil {
		return err
	}
	st, _, err := issueSpanTree(client, base, "probe-slow", 1, 1)
	if err != nil {
		return fmt.Errorf("loadgen: cancellation probe: %w", err)
	}
	if st != http.StatusGatewayTimeout {
		return fmt.Errorf("loadgen: cancellation probe: status %d, want 504", st)
	}
	fmt.Fprintf(stdout, "probe cancellation: 504 deadline (chain n=%d, 1ms budget)\n", slowN)

	// Leave the server as found.
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/graphs/probe-slow", nil)
	if resp, err := client.Do(req); err == nil {
		drain(resp)
	}

	// Readiness: a healthy, undegraded server must answer ready.
	if err := expectReady(client, base, true, ""); err != nil {
		return fmt.Errorf("loadgen: readiness probe: %w", err)
	}
	fmt.Fprintln(stdout, "probe readiness: 200 ready")

	// Drain cycle: POST /v1/drain must flip readiness to the typed 503
	// (liveness stays 200 — the process is healthy, just not taking new
	// work), and DELETE must restore it. This is the preStop contract a
	// load balancer relies on.
	if err := drainCycle(client, base); err != nil {
		return fmt.Errorf("loadgen: drain probe: %w", err)
	}
	fmt.Fprintf(stdout, "probe drain: 503 %s then restored\n", serve.CodeDraining)
	return nil
}

// expectReady asserts the state of GET /v1/readyz: ready (200) or not
// ready with the given typed code (503).
func expectReady(client *http.Client, base string, ready bool, code string) error {
	resp, err := client.Get(base + "/v1/readyz")
	if err != nil {
		return err
	}
	if ready {
		defer drain(resp)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("readyz status %d, want 200", resp.StatusCode)
		}
		return nil
	}
	got, err := decodeErrorCode(resp)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusServiceUnavailable || got != code {
		return fmt.Errorf("readyz status %d code %q, want 503 %q", resp.StatusCode, got, code)
	}
	return nil
}

// drainCycle drains the server, verifies readiness flips, and restores
// it, re-checking readiness so the probe leaves the server routable.
func drainCycle(client *http.Client, base string) error {
	resp, err := client.Post(base+"/v1/drain", "application/json", nil)
	if err != nil {
		return err
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/drain status %d, want 200", resp.StatusCode)
	}
	// Liveness must be unaffected: a draining instance is healthy.
	hz, err := client.Get(base + "/v1/healthz")
	if err != nil {
		return err
	}
	drain(hz)
	if hz.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %d while draining, want 200", hz.StatusCode)
	}
	if err := expectReady(client, base, false, serve.CodeDraining); err != nil {
		return err
	}
	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/drain", nil)
	resp, err = client.Do(req)
	if err != nil {
		return err
	}
	drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("DELETE /v1/drain status %d, want 200", resp.StatusCode)
	}
	return expectReady(client, base, true, "")
}

func decodeErrorCode(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var e serve.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		return "", err
	}
	return e.Error, nil
}
