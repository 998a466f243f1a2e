package harness

import (
	"fmt"
	"time"

	"spantree/internal/core"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
	"spantree/internal/spanlevel"
	"spantree/internal/spanseq"
	"spantree/internal/spansv"
	"spantree/internal/spanuf"
	"spantree/internal/verify"
)

// measurement is one (algorithm, p) data point.
type measurement struct {
	algo string
	p    int
	time time.Duration
	// extra carries algorithm-specific info for findings (e.g. SV
	// iteration counts, steal counts).
	extra string
}

// algoKind identifies the runner used by measure.
type algoKind int

const (
	kindSeqBFS algoKind = iota
	kindSV
	kindSVLocks
	kindHCS
	kindAS
	kindRM
	kindLevelBFS
	kindWS     // the paper's work-stealing algorithm
	kindSpanUF // the edge-centric CAS-hook union-find sweep
)

func (k algoKind) label() string {
	switch k {
	case kindSeqBFS:
		return "Sequential"
	case kindSV:
		return "SV"
	case kindSVLocks:
		return "SV-locks"
	case kindHCS:
		return "HCS"
	case kindAS:
		return "AS"
	case kindRM:
		return "RandMate"
	case kindLevelBFS:
		return "LevelBFS"
	case kindWS:
		return "NewAlg"
	case kindSpanUF:
		return "SpanUF"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// wsConfig carries the work-stealing variant toggles for ablations.
type wsConfig struct {
	noSteal     bool
	noStub      bool
	deg2        bool
	fallbackAtP bool // threshold = max(1, p-1): force-detect pathologies
	stubSteps   int  // 0 = the default 2p
	chunkSize   int  // 0 = par.DefaultChunkSize; set only by the chunk ablation
	// statsOut, when non-nil, receives the run's core.Stats for
	// ablations that check steal hit rates. In wall-clock mode the
	// steal counters are summed across repetitions — a hit rate computed
	// from one repetition's handful of attempts is binomial noise —
	// while the remaining fields reflect the final repetition.
	statsOut *core.Stats
}

// measure runs one algorithm at one processor count and returns its
// measured (modeled or wall-clock) time. The computed forest is always
// verified when cfg.Verify is set; a verification failure is returned as
// an error since it invalidates the whole experiment.
func measure(cfg Config, g *graph.Graph, kind algoKind, p int, ws wsConfig) (measurement, error) {
	m := measurement{algo: kind.label(), p: p}
	runOnce := func(model *smpmodel.Model, rec *obs.Recorder) ([]graph.VID, string, error) {
		family := spansv.Options{NumProcs: p, Model: model, Obs: rec}
		switch kind {
		case kindSeqBFS:
			return spanseq.BFS(g, model.Probe(0)), "", nil
		case kindSV, kindSVLocks:
			parent, st, err := spansv.SpanningForest(g, family, kind == kindSVLocks)
			return parent, fmt.Sprintf("iters=%d shortcuts=%d", st.Iterations, st.ShortcutRounds), err
		case kindHCS:
			parent, st, err := spansv.HCS(g, family)
			return parent, fmt.Sprintf("iters=%d shortcuts=%d", st.Iterations, st.ShortcutRounds), err
		case kindAS:
			parent, st, err := spansv.AwerbuchShiloach(g, family)
			return parent, fmt.Sprintf("iters=%d hooks=%d+%d", st.Iterations, st.ConditionalHooks, st.UnconditionalHooks), err
		case kindRM:
			parent, st, err := spansv.RandomMating(g, family, cfg.Seed)
			return parent, fmt.Sprintf("rounds=%d", st.Rounds), err
		case kindLevelBFS:
			parent, st, err := spanlevel.SpanningForest(g, spanlevel.Options{NumProcs: p, Model: model})
			return parent, fmt.Sprintf("levels=%d", st.Levels), err
		case kindSpanUF:
			parent, st, err := spanuf.SpanningForest(g, spanuf.Options{
				NumProcs: p,
				Model:    model,
				Obs:      rec,
			})
			return parent, fmt.Sprintf("hookslost=%d finds=%d compress=%d",
				st.HooksLost, st.Finds, st.CompressionWrites), err
		case kindWS:
			opt := core.Options{
				NumProcs:      p,
				Seed:          cfg.Seed,
				Model:         model,
				Obs:           rec,
				NoSteal:       ws.noSteal,
				NoStub:        ws.noStub,
				Deg2Eliminate: ws.deg2,
				StubSteps:     ws.stubSteps,
				ChunkSize:     ws.chunkSize,
			}
			if ws.fallbackAtP {
				opt.FallbackThreshold = maxInt(1, p-1)
			}
			var (
				parent []graph.VID
				st     core.Stats
				err    error
			)
			if cfg.Mode == Modeled {
				parent, st, err = core.LockstepForest(g, opt)
			} else {
				parent, st, err = core.SpanningForest(g, opt)
			}
			if ws.statsOut != nil {
				prev := *ws.statsOut
				*ws.statsOut = st
				ws.statsOut.Steals += prev.Steals
				ws.statsOut.StealAttempts += prev.StealAttempts
			}
			extra := fmt.Sprintf("steals=%d imbalance=%.2f", st.Steals, st.MaxLoadImbalance())
			if st.FallbackTriggered {
				extra += " fallback=yes"
			}
			return parent, extra, err
		}
		return nil, "", fmt.Errorf("harness: unknown algorithm kind %d", kind)
	}

	// instrumented reports whether this algorithm kind feeds the
	// observability layer (only those runs produce a meaningful Report).
	instrumented := kind == kindWS || kind == kindSV || kind == kindSVLocks || kind == kindSpanUF
	collect := func(rec *obs.Recorder, elapsed time.Duration, rep int) {
		if rec == nil {
			return
		}
		label := fmt.Sprintf("%s/%v/p=%d", m.algo, g, p)
		meta := map[string]string{
			"algo":  m.algo,
			"graph": g.String(),
			"p":     fmt.Sprint(p),
			"mode":  cfg.Mode.String(),
			"seed":  fmt.Sprint(cfg.Seed),
			"rep":   fmt.Sprint(rep),
		}
		// Stamp the algorithm family so benchcmp can warn when a baseline
		// and a current artifact measured different ones.
		switch kind {
		case kindWS:
			meta["alg"] = "workstealing"
		case kindSpanUF:
			meta["alg"] = "spanuf"
		}
		cfg.Collector.Collect(label, meta, elapsed.Nanoseconds(), rec)
	}

	if cfg.Mode == Modeled {
		model := smpmodel.New(p)
		var rec *obs.Recorder
		if instrumented {
			rec = cfg.Collector.NewRecorder(p)
		}
		parent, extra, err := runOnce(model, rec)
		if err != nil {
			return m, err
		}
		if cfg.Verify {
			if err := verify.Forest(g, parent); err != nil {
				return m, fmt.Errorf("harness: %s p=%d on %v: %w", m.algo, p, g, err)
			}
		}
		m.time = model.Time(cfg.Machine)
		m.extra = extra
		collect(rec, m.time, 0)
		return m, nil
	}

	// Wall-clock: repeat and keep the minimum. Every repetition gets its
	// own fresh Recorder (a Recorder accumulates for its lifetime, so one
	// recorder across repeats would conflate the runs) and contributes
	// its own same-label report, distinguished by meta "rep" — consumers
	// that want the best repetition take the minimum elapsed_ns over
	// equal labels, which is exactly what cmd/benchcmp does.
	best := time.Duration(0)
	var extra string
	for rep := 0; rep < cfg.Repeats; rep++ {
		var rec *obs.Recorder
		if instrumented {
			rec = cfg.Collector.NewRecorder(p)
		}
		start := time.Now()
		parent, e, err := runOnce(nil, rec)
		elapsed := time.Since(start)
		if err != nil {
			return m, err
		}
		if rep == 0 && cfg.Verify {
			if err := verify.Forest(g, parent); err != nil {
				return m, fmt.Errorf("harness: %s p=%d on %v: %w", m.algo, p, g, err)
			}
		}
		collect(rec, elapsed, rep)
		if best == 0 || elapsed < best {
			best = elapsed
		}
		extra = e
	}
	m.time = best
	m.extra = extra
	return m, nil
}

// parallelKind is the algorithm the Fig. 3 / Fig. 4 experiments run as
// "the parallel algorithm": the paper's work-stealing traversal, or the
// CAS-hook sweep when the CLI substituted it with -alg spanuf.
func parallelKind(cfg Config) algoKind {
	if cfg.SpanUF {
		return kindSpanUF
	}
	return kindWS
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
