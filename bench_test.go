package spantree

// Wall-clock benchmarks, one family per figure of the paper plus one per
// ablation from DESIGN.md. On a multi-core host the parallel benches
// show real speedup; on any host they measure throughput. The
// deterministic modeled-time reproduction of the figures (the mode that
// recreates the paper's shapes regardless of host parallelism) is
// `go run ./cmd/benchfig -fig all`; these benches are the measured
// counterpart.
//
// Benchmark sizes default to n = 1<<16 so the full suite runs in
// minutes; paper-scale runs use cmd/benchfig -scale 1048576.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"spantree/internal/gen"
	"spantree/internal/graph"
)

const benchN = 1 << 16

// benchGraphs caches the benchmark inputs across sub-benchmarks.
var benchGraphs struct {
	once sync.Once
	m    map[string]*Graph
}

func benchGraph(name string) *Graph {
	benchGraphs.once.Do(func() {
		side := 1
		for side*side < benchN {
			side++
		}
		cube := 1
		for cube*cube*cube < benchN {
			cube++
		}
		logn := 0
		for 1<<logn < benchN {
			logn++
		}
		benchGraphs.m = map[string]*Graph{
			"fig3-random":    gen.RandomConnected(benchN, 3*benchN/2, 1),
			"torus-rowmajor": gen.Torus2D(side, side),
			"torus-random":   graph.RandomRelabel(gen.Torus2D(side, side), 2),
			"random-nlogn":   gen.Random(benchN, benchN*logn, 3),
			"mesh2d60":       gen.Mesh2D(side, side, 0.60, 4),
			"mesh3d40":       gen.Mesh3D(cube, cube, cube, 0.40, 5),
			"ad3":            gen.AD3(benchN, 6),
			"geo-flat":       gen.GeoFlat(benchN, gen.DefaultGeoFlatParams(), 7),
			"geo-hier":       gen.GeoHier(benchN, gen.DefaultGeoHierParams(), 8),
			"chain-seq":      gen.Chain(benchN),
			"chain-random":   graph.RandomRelabel(gen.Chain(benchN), 9),
			"star":           gen.Star(benchN),
		}
	})
	return benchGraphs.m[name]
}

func benchProcs() []int {
	max := runtime.GOMAXPROCS(0)
	ps := []int{1}
	for p := 2; p <= max && p <= 8; p *= 2 {
		ps = append(ps, p)
	}
	return ps
}

// runFindBench benchmarks one algorithm configuration on one graph.
func runFindBench(b *testing.B, g *Graph, opt Options) {
	b.Helper()
	b.ReportAllocs()
	b.SetBytes(int64(g.NumVertices() + 2*g.NumEdges())) // items touched
	for i := 0; i < b.N; i++ {
		res, err := Find(g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if res.TreeEdges != g.NumVertices()-res.Roots {
			b.Fatalf("inconsistent result: %d edges, %d roots", res.TreeEdges, res.Roots)
		}
	}
}

// BenchmarkFig3 is the wall-clock counterpart of the paper's Fig. 3:
// sequential BFS vs the work-stealing algorithm on a random graph with
// m = 1.5n.
func BenchmarkFig3(b *testing.B) {
	g := benchGraph("fig3-random")
	b.Run("sequential", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgSequentialBFS})
	})
	for _, p := range benchProcs() {
		b.Run(fmt.Sprintf("newalg-p%d", p), func(b *testing.B) {
			runFindBench(b, g, Options{Algorithm: AlgWorkStealing, NumProcs: p, Seed: 1})
		})
	}
}

// benchmarkFig4Plot runs the three series of one Fig. 4 plot.
func benchmarkFig4Plot(b *testing.B, graphName string) {
	g := benchGraph(graphName)
	b.Run("sequential", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgSequentialBFS})
	})
	for _, p := range benchProcs() {
		b.Run(fmt.Sprintf("sv-p%d", p), func(b *testing.B) {
			runFindBench(b, g, Options{Algorithm: AlgSV, NumProcs: p})
		})
		b.Run(fmt.Sprintf("newalg-p%d", p), func(b *testing.B) {
			runFindBench(b, g, Options{Algorithm: AlgWorkStealing, NumProcs: p, Seed: 1})
		})
	}
}

func BenchmarkFig4TorusRowMajor(b *testing.B)   { benchmarkFig4Plot(b, "torus-rowmajor") }
func BenchmarkFig4TorusRandom(b *testing.B)     { benchmarkFig4Plot(b, "torus-random") }
func BenchmarkFig4RandomNLogN(b *testing.B)     { benchmarkFig4Plot(b, "random-nlogn") }
func BenchmarkFig4Mesh2D60(b *testing.B)        { benchmarkFig4Plot(b, "mesh2d60") }
func BenchmarkFig4Mesh3D40(b *testing.B)        { benchmarkFig4Plot(b, "mesh3d40") }
func BenchmarkFig4AD3(b *testing.B)             { benchmarkFig4Plot(b, "ad3") }
func BenchmarkFig4GeoFlat(b *testing.B)         { benchmarkFig4Plot(b, "geo-flat") }
func BenchmarkFig4GeoHier(b *testing.B)         { benchmarkFig4Plot(b, "geo-hier") }
func BenchmarkFig4ChainSequential(b *testing.B) { benchmarkFig4Plot(b, "chain-seq") }
func BenchmarkFig4ChainRandom(b *testing.B)     { benchmarkFig4Plot(b, "chain-random") }

// BenchmarkAblationNoSteal isolates the work-stealing mechanism (the
// paper's Fig. 2 load-imbalance discussion).
func BenchmarkAblationNoSteal(b *testing.B) {
	g := benchGraph("torus-rowmajor")
	p := benchProcs()[len(benchProcs())-1]
	b.Run("steal", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgWorkStealing, NumProcs: p, Seed: 1})
	})
	b.Run("nosteal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := findWS(g, p, wsToggles{noSteal: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNoStub isolates the stub spanning tree seeding.
func BenchmarkAblationNoStub(b *testing.B) {
	g := benchGraph("torus-rowmajor")
	p := benchProcs()[len(benchProcs())-1]
	b.Run("stub", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgWorkStealing, NumProcs: p, Seed: 1})
	})
	b.Run("nostub", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := findWS(g, p, wsToggles{noStub: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationChunk isolates the owner hot path's drain chunk:
// chunk 1 reproduces the unbatched one-lock-op-per-vertex traversal,
// chunk 64 a smaller batch, and the default the 256-vertex drain.
func BenchmarkAblationChunk(b *testing.B) {
	g := benchGraph("torus-random")
	p := benchProcs()[len(benchProcs())-1]
	for _, v := range []struct {
		name  string
		chunk int
	}{{"chunk1", 1}, {"chunk64", 64}, {"default", 0}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := findWS(g, p, wsToggles{chunkSize: v.chunk}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSVLock compares CAS elections against per-root locks
// in the SV baseline ("the locking approach intuitively is slow").
func BenchmarkAblationSVLock(b *testing.B) {
	g := benchGraph("fig3-random")
	p := benchProcs()[len(benchProcs())-1]
	b.Run("cas", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgSV, NumProcs: p})
	})
	b.Run("locks", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgSVLocks, NumProcs: p})
	})
}

// BenchmarkAblationDeg2 isolates the degree-2 elimination preprocessing
// on the pathological chain.
func BenchmarkAblationDeg2(b *testing.B) {
	g := benchGraph("chain-seq")
	p := benchProcs()[len(benchProcs())-1]
	b.Run("plain", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgWorkStealing, NumProcs: p, Seed: 1})
	})
	b.Run("deg2", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgWorkStealing, NumProcs: p, Seed: 1, Deg2Eliminate: true})
	})
}

// BenchmarkExtensions covers the future-work algorithms: parallel
// Borůvka MSF and random mating.
func BenchmarkExtensions(b *testing.B) {
	g := benchGraph("fig3-random")
	p := benchProcs()[len(benchProcs())-1]
	b.Run("boruvka", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FindMST(g, p, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("randommating", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FindRandomMating(g, p, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenerators measures the workload generators themselves.
func BenchmarkGenerators(b *testing.B) {
	kinds := []string{"torus2d", "mesh2d60", "mesh3d40", "random", "ad3", "geoflat", "geohier", "chain"}
	for _, kind := range kinds {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(gen.Spec{Kind: kind, N: 1 << 12, Seed: uint64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVerify measures the independent verifier, which tools run
// after every algorithm.
func BenchmarkVerify(b *testing.B) {
	g := benchGraph("fig3-random")
	res, err := Find(g, Options{Algorithm: AlgSequentialBFS})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Verify(g, res.Parent); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBarrierLevelBFS contrasts the paper's O(1)-barrier traversal
// with the Θ(diameter)-barrier level-synchronous BFS (harness
// experiment abl-barriers, wall-clock counterpart).
func BenchmarkBarrierLevelBFS(b *testing.B) {
	g := benchGraph("torus-rowmajor")
	p := benchProcs()[len(benchProcs())-1]
	b.Run("workstealing", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgWorkStealing, NumProcs: p, Seed: 1})
	})
	b.Run("levelbfs", func(b *testing.B) {
		runFindBench(b, g, Options{Algorithm: AlgLevelBFS, NumProcs: p})
	})
}

// BenchmarkApplications measures the spanning-tree applications: the
// biconnected and ear decompositions from the paper's motivation, plus
// the tree-analysis toolkit.
func BenchmarkApplications(b *testing.B) {
	g := benchGraph("geo-hier")
	b.Run("biconnected", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if BiconnectedComponents(g).NumComponents == 0 {
				b.Fatal("no blocks")
			}
		}
	})
	b.Run("ears", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if Ears(g) == nil {
				b.Fatal("nil decomposition")
			}
		}
	})
	res, err := Find(g, Options{Algorithm: AlgSequentialBFS})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("treeops-analyze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := AnalyzeForest(res.Parent)
			if err != nil {
				b.Fatal(err)
			}
			if f.Height() == 0 {
				b.Fatal("flat tree")
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Verify(g, res.Parent); err != nil {
				b.Fatal(err)
			}
		}
	})
}
