// Package cli implements the logic of the repository's command-line
// tools (cmd/spantree, cmd/graphgen, cmd/benchfig) as testable Run
// functions: each parses its own flags, writes to the provided streams,
// and returns an error instead of exiting, so the integration tests can
// drive the complete tool surface in-process.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"spantree"
	"spantree/internal/core"
	"spantree/internal/gen"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
)

// RunSpanTree is the entry point of cmd/spantree: generate or load a
// graph, run an algorithm, verify, and report.
func RunSpanTree(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spantree", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		genKind   = fs.String("gen", "random", "generator kind (see -genlist) when -in is not given")
		genList   = fs.Bool("genlist", false, "list generator kinds and exit")
		n         = fs.Int("n", 1<<16, "vertex budget for the generator")
		m         = fs.Int("m", 0, "edge count (random graphs; 0 = 1.5n)")
		k         = fs.Int("k", 0, "neighbor count (geometric graphs; 0 = 3)")
		seed      = fs.Uint64("seed", 1, "random seed for generation and the algorithm")
		randlabel = fs.Bool("randlabel", false, "randomly relabel vertices after generation")
		inPath    = fs.String("in", "", "read a binary graph instead of generating")
		outPath   = fs.String("out", "", "write the graph (binary) and exit without running")
		algoName  = fs.String("algo", "workstealing", "algorithm: workstealing, seqbfs, seqdfs, sequf, sv, svlocks, hcs, as, levelbfs, spanuf")
		procs     = fs.Int("p", runtime.GOMAXPROCS(0), "virtual processors for parallel algorithms")
		deg2      = fs.Bool("deg2", false, "enable degree-2 elimination preprocessing")
		chunk     = fs.Int("chunk", 0, "drain chunk size for every parallel algorithm: > 0 forces a fixed chunk (1 = unbatched); 0 keeps the adaptive controller (where it caps growth)")
		chunkPol  = fs.String("chunkpolicy", "", "drain chunk policy for every parallel algorithm: adaptive or fixed (default adaptive, or fixed when -chunk > 0)")
		fallback  = fs.Int("fallback", 0, "idle-detection threshold (0 disables the SV fallback)")
		model     = fs.Bool("model", false, "report Helman-JáJá modeled cost (E4500 profile)")
		noverify  = fs.Bool("noverify", false, "skip result verification")
		repeats   = fs.Int("repeats", 1, "timed repetitions (min reported)")
		metrics   = fs.String("metrics", "", "write a per-worker metrics JSON report to this path (e.g. results/metrics.json)")
		trace     = fs.String("trace", "", "write a timestamped event-trace JSON report to this path")
		traceCap  = fs.Int("tracecap", 1<<16, "event ring-buffer capacity for -trace")
		timeout   = fs.Duration("timeout", 0, "abort the run after this long (0 = no deadline); an aborted run exits with a deadline error")
		chaosSeed = fs.Uint64("chaos-seed", 0, "arm the deterministic fault-injection layer with this seed (requires a binary built with -tags chaos; 0 = off)")
		validate  = fs.Bool("validate", false, "validate the input graph's CSR invariants before running (typed error on malformed input)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *genList {
		for _, kind := range gen.Kinds() {
			fmt.Fprintln(stdout, kind)
		}
		return nil
	}

	g, err := loadOrGenerate(*inPath, *genKind, *n, *m, *k, *seed, *randlabel)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %v (avg degree %.2f, max degree %d)\n", g, g.AvgDegree(), g.MaxDegree())

	if *outPath != "" {
		return writeBinaryGraph(*outPath, g, stdout)
	}

	algo, err := spantree.ParseAlgorithm(*algoName)
	if err != nil {
		return err
	}
	policy, err := resolveChunkPolicy(*chunkPol, *chunk)
	if err != nil {
		return err
	}
	if *chaosSeed != 0 && !spantree.ChaosEnabled {
		return fmt.Errorf("spantree: -chaos-seed requires a binary built with -tags chaos")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var best *spantree.Result
	var costModel *smpmodel.Model
	var rec *obs.Recorder
	var recElapsed time.Duration
	for rep := 0; rep < max(1, *repeats); rep++ {
		opt := spantree.Options{
			Algorithm:         algo,
			NumProcs:          *procs,
			Seed:              *seed,
			Deg2Eliminate:     *deg2,
			FallbackThreshold: *fallback,
			ChunkPolicy:       policy,
			ChunkSize:         *chunk,
			Verify:            !*noverify,
			ValidateInput:     *validate,
			ChaosSeed:         *chaosSeed,
		}
		if *model && rep == 0 {
			costModel = smpmodel.New(max(1, *procs))
			opt.Model = costModel
		}
		if (*metrics != "" || *trace != "") && rep == 0 {
			// Observe only the first repetition: a Recorder accumulates
			// for its lifetime, so one recorder across repeats would
			// conflate the runs in the report.
			if *trace != "" {
				rec = obs.New(max(1, *procs), obs.WithTrace(*traceCap))
			} else {
				rec = obs.New(max(1, *procs))
			}
			opt.Obs = rec
		}
		res, err := spantree.FindContext(ctx, g, opt)
		if err != nil {
			return err
		}
		if rep == 0 {
			recElapsed = res.Elapsed
		}
		if best == nil || res.Elapsed < best.Elapsed {
			best = res
		}
	}

	fmt.Fprintf(stdout, "algorithm: %v  p=%d\n", best.Algorithm, *procs)
	fmt.Fprintf(stdout, "wall time: %v (min of %d)\n", best.Elapsed.Round(time.Microsecond), max(1, *repeats))
	fmt.Fprintf(stdout, "tree: %d edges, %d roots (components)\n", best.TreeEdges, best.Roots)
	if !*noverify {
		fmt.Fprintln(stdout, "verified: spanning forest is valid")
	}
	if ws := best.WorkStealing; ws != nil {
		reportWorkStealing(stdout, ws, policy)
	}
	if sv := best.SV; sv != nil {
		fmt.Fprintf(stdout, "sv: iterations=%d shortcutRounds=%d grafts=%d\n", sv.Iterations, sv.ShortcutRounds, sv.Grafts)
	}
	if hcs := best.HCS; hcs != nil {
		fmt.Fprintf(stdout, "hcs: iterations=%d shortcutRounds=%d grafts=%d\n", hcs.Iterations, hcs.ShortcutRounds, hcs.Grafts)
	}
	if as := best.AS; as != nil {
		fmt.Fprintf(stdout, "as: iterations=%d hooks=%d+%d\n", as.Iterations, as.ConditionalHooks, as.UnconditionalHooks)
	}
	if lv := best.LevelBFS; lv != nil {
		fmt.Fprintf(stdout, "levelbfs: levels=%d maxFrontier=%d\n", lv.Levels, lv.MaxFrontier)
	}
	if uf := best.SpanUF; uf != nil {
		fmt.Fprintf(stdout, "spanuf: hooksWon=%d hooksLost=%d finds=%d compress=%d\n",
			uf.TreeEdges, uf.HooksLost, uf.Finds, uf.CompressionWrites)
	}
	if costModel != nil {
		mach := smpmodel.E4500()
		fmt.Fprintf(stdout, "modeled (%s): %v, triplet %s\n", mach.Name, costModel.Time(mach), costModel.Triplet())
	}
	if rec != nil {
		label := fmt.Sprintf("%s/%v/p=%d", best.Algorithm, g, *procs)
		meta := map[string]string{
			"algo":        best.Algorithm.String(),
			"graph":       g.String(),
			"p":           fmt.Sprint(*procs),
			"seed":        fmt.Sprint(*seed),
			"chunkpolicy": policy.String(),
		}
		rep := rec.NewReport(label, meta)
		rep.ElapsedNS = recElapsed.Nanoseconds()
		if *metrics != "" {
			a := &obs.Artifact{Runs: []obs.Report{rep}}
			if err := a.WriteFile(*metrics); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "metrics: wrote %s\n", *metrics)
		}
		if *trace != "" {
			a := &obs.Artifact{Runs: []obs.Report{rep.WithEvents(rec)}}
			if err := a.WriteFile(*trace); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace: wrote %s (%d events)\n", *trace, len(rec.Events()))
		}
	}
	return nil
}

// reportWorkStealing prints the work-stealing traversal's statistics:
// the protocol counters, the chunk controller's activity, and the
// fallback and degradation outcomes when they occurred.
func reportWorkStealing(w io.Writer, ws *core.Stats, policy spantree.ChunkPolicy) {
	fmt.Fprintf(w, "workstealing: stub=%d steals=%d stolen=%d failedClaims=%d cursorRoots=%d imbalance=%.2f\n",
		ws.StubSize, ws.Steals, ws.StolenVertices, ws.FailedClaims, ws.CursorRoots, ws.MaxLoadImbalance())
	fmt.Fprintf(w, "chunk: policy=%v stealHitRate=%.3f grow=%d shrink=%d\n",
		policy, ws.StealHitRate(), ws.ChunkGrow, ws.ChunkShrink)
	if ws.FallbackTriggered {
		fmt.Fprintf(w, "fallback: SV completion ran (%d grafts in %d iterations)\n",
			ws.SVStats.Grafts, ws.SVStats.Iterations)
	}
	if ws.DegradedToSeq {
		fmt.Fprintf(w, "degraded: worker panic recovered (%v); forest recomputed sequentially\n", ws.Panic)
	}
}

// resolveChunkPolicy maps the -chunkpolicy/-chunk flag pair onto a
// ChunkPolicy: an explicit name wins, otherwise -chunk > 0 forces the
// fixed policy (so existing `-chunk 64` invocations keep their exact
// pre-adaptive behavior) and the default is adaptive.
func resolveChunkPolicy(name string, chunk int) (spantree.ChunkPolicy, error) {
	if name == "" {
		if chunk > 0 {
			return spantree.ChunkFixed, nil
		}
		return spantree.ChunkAdaptive, nil
	}
	return spantree.ParseChunkPolicy(name)
}

func loadOrGenerate(inPath, kind string, n, m, k int, seed uint64, randlabel bool) (*spantree.Graph, error) {
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return spantree.ReadGraph(f)
	}
	return gen.Generate(gen.Spec{Kind: kind, N: n, M: m, K: k, Seed: seed, RandomLabel: randlabel})
}

func writeBinaryGraph(path string, g *spantree.Graph, stdout io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spantree.WriteGraph(f, g); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}
