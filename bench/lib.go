package main

import (
	"context"
	"runtime"
	"time"

	"spantree"
	"spantree/internal/core"
	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/spanseq"
	"spantree/internal/verify"
	"spantree/internal/xrand"
)

const (
	// verifyEvery runs the full forest verifier on every this-many-th
	// Find (and on the first and last); every Find's root and tree-edge
	// counts are checked.
	verifyEvery = 16
	// spanCap bounds one lane's trace buffer.
	spanCap = 1 << 17
)

// runLib is the lib-torus and lib-random workload: one caller runs a
// library-default Session (wide layout, auto direction, one team) at
// p = 2 on a generated graph.
func runLib(ctx context.Context, cfg config, kind string, rep *report, tr *tracer) error {
	l := tr.lane(spanCap)
	spec := gen.Spec{Kind: kind, N: cfg.sizes.lib, Seed: cfg.rng(seedGraph).Uint64()}
	var (
		g                 *graph.Graph
		s                 *spantree.Session
		setup, genS, newS []float64
	)
	defer func() {
		if s != nil {
			s.Close()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.Close()
			s, g = nil, nil
		}
		runtime.GC() // the previous graph's collection is not this set-up's cost
		root := l.begin("setup", -1, int64(i))
		sp := l.begin("gen.generate", root, int64(i))
		t0 := time.Now()
		var err error
		if g, err = gen.Generate(spec); err != nil {
			return err
		}
		t1 := time.Now()
		l.end(sp)
		sp = l.begin("session.new", root, int64(i))
		if s, err = spantree.NewSession(g, spantree.SessionOptions{NumProcs: procs}); err != nil {
			return err
		}
		t2 := time.Now()
		l.end(sp)
		l.end(root)
		genS = append(genS, t1.Sub(t0).Seconds())
		newS = append(newS, t2.Sub(t1).Seconds())
		setup = append(setup, t2.Sub(t0).Seconds())
	}
	rep.set("setup_s", median(setup))
	rep.set("gen.generate_s", median(genS))
	rep.set("session.new_s", median(newS))

	sp := l.begin("graph.components", -1, -1)
	_, comps := graph.Components(g)
	l.end(sp)
	if err := modelP8(g, core.Options{Seed: cfg.rng(seedModel).Uint64()}, rep, l); err != nil {
		return err
	}

	w := &libWindow{s: s, g: g, comps: comps, seeds: cfg.rng(seedRuns), rep: rep}
	if !cfg.trace {
		m := w.measure(ctx, cfg.window, nil, false)
		m.reportEndToEnd(rep)
		return ctx.Err()
	}
	// The per-layer pass: counts from an untraced half, then a traced
	// half whose median slowdown against the untraced one is the tracing
	// overhead.
	m := w.measure(ctx, cfg.window/2, nil, true)
	m.reportEndToEnd(rep)
	m.reportLayers(rep)
	traced := w.measure(ctx, cfg.window/2, l, false)
	rep.set("bench.trace_overhead_frac", ratio(median(traced.slow), median(m.slow))-1)
	return ctx.Err()
}

// libWindow is the state a lib workload's windows share.
type libWindow struct {
	s     *spantree.Session
	g     *graph.Graph
	comps int
	seeds *xrand.Rand
	rep   *report
	ops   int64 // operation ids, unique across windows
}

// libSamples is what one window measured.
type libSamples struct {
	find, bfs []float64 // ms; a failed run is +Inf
	slow      []float64 // each Find's slowdown over the BFS after it
	runs      int
	st        core.Stats // summed counters of the successful runs
	imbalance float64    // summed MaxLoadImbalance
	stubs     int        // summed StubSize
	degraded  int
	allocs    uint64 // heap allocations inside Find, when counted
	gcs       uint32
}

// measure runs Finds for d, each followed by a sequential BFS of the same
// graph. countAllocs brackets every Find with runtime.ReadMemStats,
// outside the timed interval.
func (w *libWindow) measure(ctx context.Context, d time.Duration, l *lane, countAllocs bool) libSamples {
	var out libSamples
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0 := ms.NumGC
	n := w.g.NumVertices()
	var last *spantree.Result
	lastVerified := true
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		op := w.ops
		w.ops++
		root := l.begin("op", -1, op)
		var m0 uint64
		if countAllocs {
			runtime.ReadMemStats(&ms)
			m0 = ms.Mallocs
		}
		sp := l.begin("session.find", root, op)
		t0 := time.Now()
		res, err := w.s.Find(w.seeds.Uint64())
		lat := msSince(t0)
		l.end(sp)
		if countAllocs {
			runtime.ReadMemStats(&ms)
			out.allocs += ms.Mallocs - m0
		}

		sp = l.begin("bench.check", root, op)
		ok := err == nil && res.Roots == w.comps && res.TreeEdges == n-w.comps
		last = nil
		if ok {
			last, lastVerified = res, false
			if i%verifyEvery == 0 {
				vs := l.begin("verify.forest", sp, op)
				ok = verify.Forest(w.g, res.Parent) == nil
				l.end(vs)
				lastVerified = true
			}
		}
		l.end(sp)
		w.rep.op(ok)
		if !ok {
			lat = failed
		} else {
			out.add(res.WorkStealing)
		}
		out.find = append(out.find, lat)
		out.runs++

		sp = l.begin("spanseq.bfs", root, op)
		t0 = time.Now()
		parent := spanseq.BFS(w.g, nil)
		bfs := msSince(t0)
		l.end(sp)
		roots := n - verify.CountTreeEdges(parent)
		w.rep.op(roots == w.comps)
		if roots != w.comps {
			bfs = failed
		}
		out.bfs = append(out.bfs, bfs)
		out.slow = append(out.slow, slowdown(lat, bfs))
		l.end(root)
	}
	if last != nil && !lastVerified && verify.Forest(w.g, last.Parent) != nil {
		w.rep.failed++
		out.find[len(out.find)-1] = failed
		out.slow[len(out.slow)-1] = failed
	}
	runtime.ReadMemStats(&ms)
	out.gcs = ms.NumGC - gc0
	return out
}

func (s *libSamples) add(st *core.Stats) {
	s.st.Steals += st.Steals
	s.st.StealAttempts += st.StealAttempts
	s.st.StolenVertices += st.StolenVertices
	s.st.FailedClaims += st.FailedClaims
	s.st.ChunkGrow += st.ChunkGrow
	s.st.ChunkShrink += st.ChunkShrink
	s.st.CursorRoots += st.CursorRoots
	s.imbalance += st.MaxLoadImbalance()
	s.stubs += st.StubSize
	if st.DegradedToSeq {
		s.degraded++
	}
}

func (s *libSamples) reportEndToEnd(rep *report) {
	p50, mean := speedups(s.slow)
	rep.set("speedup_vs_seq", p50)
	rep.set("speedup_vs_seq_mean", mean)
	rep.samples["pairs"] = len(s.slow)
}

func (s *libSamples) reportLayers(rep *report) {
	runs := float64(s.runs)
	p50, _ := percentile(s.find, 0.5)
	p90, _ := percentile(s.find, 0.9)
	rep.set("session.find_ms_p50", p50)
	rep.set("session.find_ms_p90", p90)
	rep.set("session.allocs_per_run", ratio(float64(s.allocs), runs))
	rep.set("session.gc_cycles", float64(s.gcs))
	rep.set("core.steal_attempts_per_run", ratio(float64(s.st.StealAttempts), runs))
	rep.set("core.steal_hit_rate", s.st.StealHitRate())
	rep.set("core.stolen_vertices_per_run", ratio(float64(s.st.StolenVertices), runs))
	rep.set("core.failed_claims_per_run", ratio(float64(s.st.FailedClaims), runs))
	rep.set("core.chunk_grow_per_run", ratio(float64(s.st.ChunkGrow), runs))
	rep.set("core.chunk_shrink_per_run", ratio(float64(s.st.ChunkShrink), runs))
	rep.set("core.cursor_roots_per_run", ratio(float64(s.st.CursorRoots), runs))
	rep.set("core.load_imbalance", ratio(s.imbalance, runs))
	rep.set("core.stub_size", ratio(float64(s.stubs), runs))
	rep.set("core.degraded_runs", float64(s.degraded))
	rep.set("spanseq.bfs_ms_p50", median(s.bfs))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
