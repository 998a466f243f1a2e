package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"spantree"
	"spantree/internal/core"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/serve"
	"spantree/internal/spanseq"
	"spantree/internal/verify"
	"spantree/internal/xrand"
)

const (
	hotName = "hot"
	// statsEvery is how often the connection samples /v1/stats.
	statsEvery = time.Second
)

// oracle is a graph the bench generated itself, with its component
// count, to check the daemon's answers against.
type oracle struct {
	g     *graph.Graph
	comps int
}

// matches checks a response's counts against the oracle.
func (o oracle) matches(r *serve.SpanTreeResponse) bool {
	n := o.g.NumVertices()
	return r.N == n && r.Roots == o.comps && r.TreeEdges == n-o.comps
}

// serveSamples is what one window measured.
type serveSamples struct {
	attempted, failed int
	lat               []float64 // client latency, ms; failures +Inf
	slow              []float64 // each request's slowdown over the BFS after it
	run, over         []float64 // elapsed_us and client latency minus it, ms
	bfs               []float64 // in-process sequential BFS, ms
	steals            int64
	status            map[int]int
	admitMin          int64
}

func newServeSamples() *serveSamples {
	return &serveSamples{status: map[int]int{}, admitMin: math.MaxInt64}
}

func (s *serveSamples) op(ok bool) {
	s.attempted++
	if !ok {
		s.failed++
	}
}

// conn is one client connection with its trace lane and samples.
type conn struct {
	c     *client
	l     *lane
	s     *serveSamples
	seeds *xrand.Rand
	ops   int64
	last  time.Time // last /v1/stats sample
}

// spanTree runs one request against the oracle and records its status,
// run time and overhead. It returns the client latency in ms, +Inf when
// the answer was wrong or missing.
func (cn *conn) spanTree(parent int, op int64, name string, o oracle) float64 {
	sp := cn.l.begin("serve.spantree", parent, op)
	t0 := time.Now()
	var resp serve.SpanTreeResponse
	status, err := cn.c.do(http.MethodPost, "/v1/spantree", serve.SpanTreeRequest{Graph: name, Seed: cn.seeds.Uint64()}, &resp)
	lat := msSince(t0)
	cn.l.end(sp)
	cn.s.status[status]++
	sp = cn.l.begin("bench.check", parent, op)
	ok := err == nil && status == http.StatusOK && o.matches(&resp)
	cn.l.end(sp)
	cn.s.op(ok)
	if !ok {
		return failed
	}
	run := float64(resp.ElapsedUS) / 1e3
	cn.s.run = append(cn.s.run, run)
	cn.s.over = append(cn.s.over, lat-run)
	cn.s.steals += resp.Steals
	return lat
}

// seqBFS times one in-process sequential BFS of the oracle's graph and
// returns its time in ms, +Inf when its root count is wrong.
func (cn *conn) seqBFS(parent int, op int64, o oracle) float64 {
	sp := cn.l.begin("spanseq.bfs", parent, op)
	t0 := time.Now()
	p := spanseq.BFS(o.g, nil)
	ms := msSince(t0)
	cn.l.end(sp)
	ok := o.g.NumVertices()-verify.CountTreeEdges(p) == o.comps
	cn.s.op(ok)
	if !ok {
		ms = failed
	}
	cn.s.bfs = append(cn.s.bfs, ms)
	return ms
}

// sampleStats reads the admission limit once per statsEvery.
func (cn *conn) sampleStats() {
	if time.Since(cn.last) < statsEvery {
		return
	}
	cn.last = time.Now()
	var st serve.StatsResponse
	sp := cn.l.begin("serve.stats", -1, -1)
	status, err := cn.c.do(http.MethodGet, "/v1/stats", nil, &st)
	cn.l.end(sp)
	if err == nil && status == http.StatusOK {
		cn.s.admitMin = min(cn.s.admitMin, st.AdmitLimit)
	}
}

// verifyParent fetches one full parent array of graph name and runs the
// forest verifier on it; outside any timed interval.
func verifyParent(c *client, name string, o oracle) bool {
	var resp serve.SpanTreeResponse
	status, err := c.do(http.MethodPost, "/v1/spantree", serve.SpanTreeRequest{Graph: name, IncludeParent: true}, &resp)
	return err == nil && status == http.StatusOK && o.matches(&resp) && verify.Forest(o.g, resp.Parent) == nil
}

// daemon is a booted backend with the hot graph registered.
type daemon struct {
	base string
	info serve.GraphInfo
	stop func()
}

func (d *daemon) close() {
	if d.stop != nil {
		d.stop()
	}
}

// bootHot sets the backend up setupReps times — boot until listening,
// then register the hot graph — and keeps the last one running.
// setup_s is the median of boot plus registration.
func bootHot(ctx context.Context, cfg config, hot gen.Spec, rep *report, l *lane) (*daemon, error) {
	d := &daemon{}
	var setup, boot, reg []float64
	for i := 0; i < setupReps; i++ {
		d.close()
		d.stop = nil
		root := l.begin("setup", -1, int64(i))
		sp := l.begin("serve.boot", root, int64(i))
		t0 := time.Now()
		base, stop, err := cfg.boot(ctx)
		t1 := time.Now()
		l.end(sp)
		if err != nil {
			return nil, err
		}
		d.base, d.stop = base, stop
		c := newClient(base)
		sp = l.begin("serve.register_hot", root, int64(i))
		status, err := c.do(http.MethodPost, "/v1/graphs", serve.RegisterRequest{
			Name: hotName, Kind: hot.Kind, N: hot.N, Seed: hot.Seed,
		}, &d.info)
		t2 := time.Now()
		l.end(sp)
		l.end(root)
		c.close()
		if err != nil || status != http.StatusCreated {
			d.close()
			return nil, fmt.Errorf("registering the hot graph: status %d: %v", status, err)
		}
		boot = append(boot, t1.Sub(t0).Seconds())
		reg = append(reg, t2.Sub(t1).Seconds())
		setup = append(setup, t2.Sub(t0).Seconds())
	}
	rep.set("setup_s", median(setup))
	rep.set("serve.boot_s", median(boot))
	rep.set("serve.register_hot_s", median(reg))
	return d, nil
}

// prepareHot builds the hot graph's oracle in process and measures, from
// outside, the layers the daemon ran when it registered the graph: gen,
// then the compact mirror its resolved layout calls for. It also checks
// one full parent array and models the library-default traversal of the
// graph at p = 8.
func prepareHot(cfg config, d *daemon, hot gen.Spec, rep *report, l *lane) (oracle, error) {
	sp := l.begin("gen.generate", -1, -1)
	t0 := time.Now()
	g, err := gen.Generate(hot)
	rep.set("gen.generate_s", time.Since(t0).Seconds())
	l.end(sp)
	if err != nil {
		return oracle{}, err
	}
	sp = l.begin("graph.components", -1, -1)
	_, comps := graph.Components(g)
	l.end(sp)
	o := oracle{g: g, comps: comps}
	if d.info.N != g.NumVertices() {
		return o, fmt.Errorf("daemon registered %d vertices, oracle has %d", d.info.N, g.NumVertices())
	}

	lay, err := spantree.ParseLayout(d.info.Layout)
	if err != nil {
		return o, err
	}
	if lay == spantree.LayoutCompact {
		sp = l.begin("graph.compact", -1, -1)
		t0 = time.Now()
		_, err := graph.CompactOf(g)
		rep.set("graph.compact_ms", msSince(t0))
		l.end(sp)
		if err != nil {
			return o, err
		}
	}

	c := newClient(d.base)
	ok := verifyParent(c, hotName, o)
	c.close()
	rep.op(ok)
	if err := modelP8(g, core.Options{Seed: cfg.rng(seedModel).Uint64()}, rep, l); err != nil {
		return o, err
	}
	return o, nil
}

// reportServe sets the serving metrics from one window.
func reportServe(rep *report, s *serveSamples) {
	p50, mean := speedups(s.slow)
	rep.set("speedup_vs_seq", p50)
	rep.set("speedup_vs_seq_mean", mean)
	rep.samples["pairs"] = len(s.slow)

	l50, _ := percentile(s.lat, 0.5)
	l90, _ := percentile(s.lat, 0.9)
	rep.set("serve.request_ms_p50", l50)
	rep.set("serve.request_ms_p90", l90)
	rep.set("spanseq.bfs_ms_p50", median(s.bfs))
	rep.set("serve.run_ms_p50", median(s.run))
	rep.set("serve.overhead_ms_p50", median(s.over))
	o90, _ := percentile(s.over, 0.9)
	rep.set("serve.overhead_ms_p90", o90)
	rep.set("serve.steals_per_req", ratio(float64(s.steals), float64(len(s.run))))
	rep.set("serve.rejected_429", float64(s.status[http.StatusTooManyRequests]))
	rep.set("serve.stalled_503", float64(s.status[http.StatusServiceUnavailable]))
	rep.set("serve.deadline_504", float64(s.status[http.StatusGatewayTimeout]))
	if s.admitMin != math.MaxInt64 {
		rep.set("serve.admit_limit_min", float64(s.admitMin))
	}
	rep.attempted += s.attempted
	rep.failed += s.failed
}

// degradeSteps reads the ladder's step-down count at the end of a run.
func degradeSteps(base string, rep *report) {
	c := newClient(base)
	defer c.close()
	var st serve.StatsResponse
	if status, err := c.do(http.MethodGet, "/v1/stats", nil, &st); err == nil && status == http.StatusOK {
		rep.set("serve.degrade_steps", float64(st.DegradeSteps))
	}
}

// runServeSmall is serve-small: a closed loop on one keep-alive
// connection against a small torus, where HTTP, JSON and admission are a
// large share of every request. Each request is followed by an
// in-process sequential BFS of the same graph, the other half of its
// pair.
func runServeSmall(ctx context.Context, cfg config, rep *report, tr *tracer) error {
	l := tr.lane(spanCap)
	hot := gen.Spec{Kind: "torus2d", N: cfg.sizes.serveSmall, Seed: cfg.rng(seedGraph).Uint64()}
	d, err := bootHot(ctx, cfg, hot, rep, l)
	if err != nil {
		return err
	}
	defer d.close()
	o, err := prepareHot(cfg, d, hot, rep, l)
	if err != nil {
		return err
	}
	cn := &conn{c: newClient(d.base), seeds: cfg.rng(seedRuns)}
	defer cn.c.close()
	measure := func(dur time.Duration, l *lane) *serveSamples {
		cn.l, cn.s = l, newServeSamples()
		for deadline := time.Now().Add(dur); time.Now().Before(deadline) && ctx.Err() == nil; {
			op := cn.ops
			cn.ops++
			root := cn.l.begin("op", -1, op)
			lat := cn.spanTree(root, op, hotName, o)
			bfs := cn.seqBFS(root, op, o)
			cn.l.end(root)
			cn.s.lat = append(cn.s.lat, lat)
			cn.s.slow = append(cn.s.slow, slowdown(lat, bfs))
			cn.sampleStats()
		}
		return cn.s
	}
	if !cfg.trace {
		reportServe(rep, measure(cfg.window, nil))
	} else {
		// The per-layer pass: an untraced half, then a traced half whose
		// median slowdown against the untraced one is the tracing overhead.
		s := measure(cfg.window/2, nil)
		reportServe(rep, s)
		traced := measure(cfg.window/2, tr.lane(spanCap))
		rep.attempted += traced.attempted
		rep.failed += traced.failed
		rep.set("bench.trace_overhead_frac", ratio(median(traced.slow), median(s.slow))-1)
	}
	degradeSteps(d.base, rep)
	return ctx.Err()
}
