package harness

import (
	"fmt"
	"math"

	"spantree/internal/gen"
	"spantree/internal/graph"
	"spantree/internal/stats"
)

// sqrtSide returns the torus/mesh side for an n-vertex budget.
func sqrtSide(n int) int { return int(math.Sqrt(float64(n))) }

// cubeSide returns the 3D mesh side for an n-vertex budget.
func cubeSide(n int) int { return int(math.Cbrt(float64(n))) }

// log2 returns ceil(log2 n) for n >= 1.
func log2(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// fig4Plot describes one subplot of the paper's Fig. 4.
type fig4Plot struct {
	id    string
	title string
	// build constructs the input at the configured scale.
	build func(cfg Config) *graph.Graph
	// expectWSWins states whether the paper's plot shows the new
	// algorithm beating the sequential line at p >= 4. True for every
	// plot except the degenerate chains (the algorithm's stated
	// pathological case).
	expectWSWins bool
	// note is attached to the report.
	note string
}

var fig4Plots = []fig4Plot{
	{
		id:    "fig4-torus-rowmajor",
		title: "Fig 4 (torus, row-major labeling)",
		build: func(cfg Config) *graph.Graph {
			s := sqrtSide(cfg.Scale)
			return gen.Torus2D(s, s)
		},
		expectWSWins: true,
		note:         "regular topology; SV's friendly labeling",
	},
	{
		id:    "fig4-torus-random",
		title: "Fig 4 (torus, random labeling)",
		build: func(cfg Config) *graph.Graph {
			s := sqrtSide(cfg.Scale)
			return graph.RandomRelabel(gen.Torus2D(s, s), cfg.Seed^0xA5A5)
		},
		expectWSWins: true,
		note:         "regular topology; SV's adversarial labeling",
	},
	{
		id:    "fig4-random-nlogn",
		title: "Fig 4 (random graph, m = n log n)",
		build: func(cfg Config) *graph.Graph {
			n := cfg.Scale
			return gen.Random(n, n*log2(n), cfg.Seed)
		},
		expectWSWins: true,
		note:         "the paper's m = 20M ≈ n log n density at n = 1M",
	},
	{
		id:    "fig4-2d60",
		title: "Fig 4 (2D60 irregular mesh)",
		build: func(cfg Config) *graph.Graph {
			s := sqrtSide(cfg.Scale)
			return gen.Mesh2D(s, s, 0.60, cfg.Seed)
		},
		expectWSWins: true,
	},
	{
		id:    "fig4-3d40",
		title: "Fig 4 (3D40 irregular mesh)",
		build: func(cfg Config) *graph.Graph {
			s := cubeSide(cfg.Scale)
			return gen.Mesh3D(s, s, s, 0.40, cfg.Seed)
		},
		expectWSWins: true,
	},
	{
		id:    "fig4-ad3",
		title: "Fig 4 (geometric k=3, AD3)",
		build: func(cfg Config) *graph.Graph {
			return gen.AD3(cfg.Scale, cfg.Seed)
		},
		expectWSWins: true,
	},
	{
		id:    "fig4-geo-flat",
		title: "Fig 4 (geographic, flat mode)",
		build: func(cfg Config) *graph.Graph {
			return gen.GeoFlat(cfg.Scale, gen.DefaultGeoFlatParams(), cfg.Seed)
		},
		expectWSWins: true,
	},
	{
		id:    "fig4-geo-hier",
		title: "Fig 4 (geographic, hierarchical mode)",
		build: func(cfg Config) *graph.Graph {
			return gen.GeoHier(cfg.Scale, gen.DefaultGeoHierParams(), cfg.Seed)
		},
		expectWSWins: true,
	},
	{
		id:    "fig4-chain-seq",
		title: "Fig 4 (degenerate chain, sequential labeling)",
		build: func(cfg Config) *graph.Graph {
			return gen.Chain(cfg.Scale)
		},
		expectWSWins: false,
		note:         "the algorithm's stated pathological case (diameter n-1)",
	},
	{
		id:    "fig4-chain-random",
		title: "Fig 4 (degenerate chain, random labeling)",
		build: func(cfg Config) *graph.Graph {
			return graph.RandomRelabel(gen.Chain(cfg.Scale), cfg.Seed^0x5A5A)
		},
		expectWSWins: false,
		note:         "pathological case with SV-adversarial labeling",
	},
}

func init() {
	register(Experiment{
		ID:          "fig3",
		Title:       "Scalability of the new algorithm vs sequential (random graph, m = 1.5n, p = 8)",
		Description: "Reproduces Fig. 3: modeled running time of the work-stealing algorithm at p processors against sequential BFS as n grows; the paper reports speedups between 4.5 and 5.5.",
		run:         runFig3,
	})
	for _, plot := range fig4Plots {
		plot := plot
		register(Experiment{
			ID:          plot.id,
			Title:       plot.title,
			Description: "Reproduces one plot of Fig. 4: Sequential vs SV vs the new algorithm across processor counts (log-log in the paper).",
			run:         func(cfg Config) (*Report, error) { return runFig4Plot(cfg, plot) },
		})
	}
	registerAblations()
}

func runFig3(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig3", Title: "Fig 3 scalability, p = " + fmt.Sprint(cfg.Fig3Procs)}
	rep.Table = stats.NewTable("n", "m", "seq", "newalg", "speedup")
	// The paper's Fig. 3 claims are asymptotic: with chunked queue
	// draining, inputs with fewer than 4·64 vertices per processor run
	// in the startup regime and sit under the asymptote, so both the
	// band and the flatness statistics only cover points past that
	// knee; the findings line still reports the full range. The knee
	// belongs to the checked curve, not to the drain chunk, so it does
	// not follow par.DefaultChunkSize.
	amortizedN := cfg.Fig3Procs * 4 * 64
	var speedups, flatSpeedups []float64
	for _, frac := range []int{16, 8, 4, 2, 1} {
		n := cfg.Scale / frac
		if n < 64 {
			continue
		}
		// The paper spans a random graph with m = 1.5n; at that density a
		// G(n,m) sample is disconnected, and a spanning tree experiment
		// presumes a connected input, so the reproduction uses the
		// connected variant (random spanning backbone + random extra
		// edges to the same density).
		g := gen.RandomConnected(n, 3*n/2, cfg.Seed+uint64(frac))
		seq, err := measure(cfg, g, kindSeqBFS, 1, wsConfig{})
		if err != nil {
			return nil, err
		}
		ws, err := measure(cfg, g, parallelKind(cfg), cfg.Fig3Procs, wsConfig{})
		if err != nil {
			return nil, err
		}
		sp := stats.Speedup(seq.time, ws.time)
		speedups = append(speedups, sp)
		if n >= amortizedN {
			flatSpeedups = append(flatSpeedups, sp)
		}
		rep.Table.AddRow(
			fmt.Sprint(n), fmt.Sprint(g.NumEdges()),
			stats.FormatDuration(seq.time), stats.FormatDuration(ws.time),
			fmt.Sprintf("%.2f", sp),
		)
	}
	if len(speedups) == 0 {
		return nil, fmt.Errorf("harness: fig3 scale %d too small", cfg.Scale)
	}
	minSp, maxSp := speedups[0], speedups[0]
	for _, s := range speedups {
		minSp = math.Min(minSp, s)
		maxSp = math.Max(maxSp, s)
	}
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("speedup range %.2f-%.2f at p=%d (paper: 4.5-5.5 at p=8 on the E4500)", minSp, maxSp, cfg.Fig3Procs))
	if cfg.SpanUF {
		// The band and flatness checks encode the traversal's expected
		// shape; under -alg spanuf the experiment is a measurement run
		// (baseline pinning), not a shape reproduction.
		return rep, nil
	}
	if cfg.Mode == Modeled {
		bandSpeedups := flatSpeedups
		bandNote := fmt.Sprintf(" over n >= %d", amortizedN)
		if len(bandSpeedups) == 0 {
			bandSpeedups, bandNote = speedups, ""
		}
		minB, maxB := bandSpeedups[0], bandSpeedups[0]
		for _, s := range bandSpeedups {
			minB = math.Min(minB, s)
			maxB = math.Max(maxB, s)
		}
		rep.Checks = append(rep.Checks,
			Check{
				Name:   "parallel speedup in the paper's band",
				Pass:   minB >= 3.0 && maxB <= 7.5,
				Detail: fmt.Sprintf("speedups %.2f-%.2f%s, paper band 4.5-5.5 (accepting 3.0-7.5 for the substituted cost model)", minB, maxB, bandNote),
			},
		)
		if len(flatSpeedups) >= 2 {
			minF, maxF := flatSpeedups[0], flatSpeedups[0]
			for _, s := range flatSpeedups {
				minF = math.Min(minF, s)
				maxF = math.Max(maxF, s)
			}
			rep.Checks = append(rep.Checks, Check{
				Name:   "speedup roughly flat in n (linear scaling)",
				Pass:   maxF/minF < 1.8,
				Detail: fmt.Sprintf("max/min speedup ratio %.2f over n >= %d (amortized regime)", maxF/minF, amortizedN),
			})
		} else {
			rep.Findings = append(rep.Findings, fmt.Sprintf(
				"flatness check skipped: fewer than two points at n >= %d (chunk amortization knee)", amortizedN))
		}
	}
	return rep, nil
}

func runFig4Plot(cfg Config, plot fig4Plot) (*Report, error) {
	g := plot.build(cfg)
	rep := &Report{ID: plot.id, Title: plot.title}
	rep.Table = stats.NewTable("algorithm", "p", "time", "speedup", "detail")
	rep.Findings = append(rep.Findings,
		fmt.Sprintf("input %v, avg degree %.2f", g, g.AvgDegree()))
	if plot.note != "" {
		rep.Findings = append(rep.Findings, plot.note)
	}

	seq, err := measure(cfg, g, kindSeqBFS, 1, wsConfig{})
	if err != nil {
		return nil, err
	}
	rep.Table.AddRow("Sequential", "1", stats.FormatDuration(seq.time), "1.00", "")

	wsTimes := map[int]measurement{}
	svTimes := map[int]measurement{}
	for _, p := range cfg.Procs {
		sv, err := measure(cfg, g, kindSV, p, wsConfig{})
		if err != nil {
			return nil, err
		}
		svTimes[p] = sv
		rep.Table.AddRow("SV", fmt.Sprint(p), stats.FormatDuration(sv.time),
			fmt.Sprintf("%.2f", stats.Speedup(seq.time, sv.time)), sv.extra)
	}
	for _, p := range cfg.Procs {
		ws, err := measure(cfg, g, parallelKind(cfg), p, wsConfig{})
		if err != nil {
			return nil, err
		}
		wsTimes[p] = ws
		rep.Table.AddRow(ws.algo, fmt.Sprint(p), stats.FormatDuration(ws.time),
			fmt.Sprintf("%.2f", stats.Speedup(seq.time, ws.time)), ws.extra)
	}
	deg2Times := map[int]measurement{}
	if !plot.expectWSWins && !cfg.SpanUF {
		// The chain plots additionally show the paper's degree-2
		// elimination preprocessing, which collapses the pathological
		// chain before the traversal runs.
		for _, p := range cfg.Procs {
			d2, err := measure(cfg, g, kindWS, p, wsConfig{deg2: true})
			if err != nil {
				return nil, err
			}
			deg2Times[p] = d2
			rep.Table.AddRow("NewAlg+deg2", fmt.Sprint(p), stats.FormatDuration(d2.time),
				fmt.Sprintf("%.2f", stats.Speedup(seq.time, d2.time)), d2.extra)
		}
	}

	if cfg.Mode != Modeled {
		return rep, nil // no shape checks on arbitrary hosts
	}
	if cfg.SpanUF {
		// The Fig. 4 checks state where the traversal beats SV and by how
		// much; with the sweep substituted they would assert someone
		// else's shape. abl-alg carries the sweep's own checks.
		return rep, nil
	}
	minP, maxP := cfg.Procs[0], cfg.Procs[0]
	for _, p := range cfg.Procs {
		if p < minP {
			minP = p
		}
		if p > maxP {
			maxP = p
		}
	}
	rep.Checks = append(rep.Checks,
		Check{
			Name: "SV improves with processors",
			Pass: svTimes[maxP].time < svTimes[minP].time,
			Detail: fmt.Sprintf("p=%d: %v -> p=%d: %v", minP,
				stats.FormatDuration(svTimes[minP].time), maxP, stats.FormatDuration(svTimes[maxP].time)),
		},
	)
	if plot.expectWSWins {
		rep.Checks = append(rep.Checks,
			Check{
				Name: "new algorithm improves with processors",
				Pass: wsTimes[maxP].time < wsTimes[minP].time,
				Detail: fmt.Sprintf("p=%d: %v -> p=%d: %v", minP,
					stats.FormatDuration(wsTimes[minP].time), maxP, stats.FormatDuration(wsTimes[maxP].time)),
			},
			Check{
				Name: "new algorithm beats SV at every p",
				Pass: func() bool {
					for _, p := range cfg.Procs {
						if wsTimes[p].time >= svTimes[p].time {
							return false
						}
					}
					return true
				}(),
				Detail: fmt.Sprintf("at p=%d: NewAlg %v vs SV %v", maxP,
					stats.FormatDuration(wsTimes[maxP].time), stats.FormatDuration(svTimes[maxP].time)),
			},
		)
		pass := true
		for _, p := range cfg.Procs {
			if p > 2 && wsTimes[p].time >= seq.time {
				pass = false
			}
		}
		rep.Checks = append(rep.Checks, Check{
			Name: "new algorithm beats sequential for p > 2",
			Pass: pass,
			Detail: fmt.Sprintf("sequential %v, NewAlg@p=%d %v",
				stats.FormatDuration(seq.time), maxP, stats.FormatDuration(wsTimes[maxP].time)),
		})
	} else {
		// Pathological plots: the traversal is bound by the dependency
		// span of the chain, so the honest expectations are (a) no fake
		// super-serial speedup, i.e. performance comparable to SV in the
		// worst case, exactly as the paper's Section 2 discussion says,
		// and (b) the degree-2 elimination preprocessing restores the
		// win by collapsing the chain.
		rep.Checks = append(rep.Checks,
			Check{
				Name: "traversal hits the serial-dependency ceiling (paper's stated worst case)",
				Pass: wsTimes[maxP].time*2 >= seq.time,
				Detail: fmt.Sprintf("NewAlg@p=%d %v vs sequential %v: no super-serial speedup claimed",
					maxP, stats.FormatDuration(wsTimes[maxP].time), stats.FormatDuration(seq.time)),
			},
			Check{
				Name: "degree-2 elimination restores the win on the chain",
				Pass: deg2Times[maxP].time < seq.time && deg2Times[maxP].time < wsTimes[maxP].time,
				Detail: fmt.Sprintf("NewAlg+deg2@p=%d %v vs sequential %v",
					maxP, stats.FormatDuration(deg2Times[maxP].time), stats.FormatDuration(seq.time)),
			},
		)
	}
	return rep, nil
}
