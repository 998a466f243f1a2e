// Package spantree finds spanning trees and spanning forests of
// undirected graphs in parallel on shared-memory machines.
//
// It is a faithful, production-grade implementation of the randomized
// work-stealing spanning-tree algorithm of Bader and Cong ("A Fast,
// Parallel Spanning Tree Algorithm for Symmetric Multiprocessors
// (SMPs)", IPDPS 2004), together with the baselines the paper evaluates
// against — sequential BFS/DFS traversal and the Shiloach-Vishkin and
// Hirschberg-Chandra-Sarwate PRAM algorithms adapted to SMPs — the
// paper's full set of graph generators, an independent result verifier,
// and the Helman-JáJá SMP cost model used to reproduce the paper's
// experimental figures.
//
// # Quick start
//
//	g := spantree.NewRandomGraph(1<<20, 3<<19, 42) // n vertices, 1.5n edges
//	res, err := spantree.Find(g, spantree.Options{
//		Algorithm: spantree.AlgWorkStealing,
//		NumProcs:  8,
//	})
//	if err != nil { ... }
//	// res.Parent[v] is v's parent in the forest (None for roots).
//
// Every algorithm returns a spanning forest for disconnected inputs,
// with exactly one root per connected component.
package spantree

import (
	"context"
	"fmt"
	"time"

	"spantree/internal/chaos"
	"spantree/internal/conncomp"
	"spantree/internal/core"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
	"spantree/internal/spanlevel"
	"spantree/internal/spanseq"
	"spantree/internal/spansv"
	"spantree/internal/spanuf"
	"spantree/internal/verify"
)

// Graph is an immutable undirected graph in compressed-sparse-row form.
type Graph = graph.Graph

// VID is a vertex identifier.
type VID = graph.VID

// Edge is an undirected edge.
type Edge = graph.Edge

// None marks the absence of a vertex (the parent of a root).
const None = graph.None

// ErrCanceled is returned (wrapped) by FindContext when the context is
// canceled mid-run; errors.Is(err, context.Canceled) also holds.
var ErrCanceled = fault.ErrCanceled

// ErrDeadline is returned (wrapped) by FindContext when the context's
// deadline expires mid-run; errors.Is(err, context.DeadlineExceeded)
// also holds.
var ErrDeadline = fault.ErrDeadline

// ErrStalled is returned by a session whose run made no worker progress
// for a full stall budget (SessionOptions.StallBudget). The run drained
// cooperatively and the session remains reusable.
var ErrStalled = fault.ErrStalled

// PanicError is the structured record of a worker panic recovered by
// the hardened runtime: the worker id, the panic value, and the stack.
// Find does not return it as an error for the work-stealing algorithm —
// the run degrades to sequential BFS and still yields a valid forest,
// with the PanicError recorded in Result.WorkStealing.Panic — but the
// other parallel algorithms surface it directly.
type PanicError = fault.PanicError

// AsPanicError returns the *PanicError in err's chain, if any.
func AsPanicError(err error) (*PanicError, bool) { return fault.AsPanicError(err) }

// ValidationError is the typed rejection returned by input validation:
// a machine-checkable code plus the first offending location.
type ValidationError = graph.ValidationError

// ValidationCode classifies a ValidationError.
type ValidationCode = graph.ValidationCode

// AsValidationError returns the *ValidationError in err's chain, if any.
func AsValidationError(err error) (*ValidationError, bool) {
	return graph.AsValidationError(err)
}

// ChaosEnabled reports whether this binary was built with the chaos
// build tag, i.e. whether Options.ChaosSeed can inject faults.
const ChaosEnabled = chaos.Enabled

// Algorithm selects the spanning-tree algorithm to run.
type Algorithm int

const (
	// AlgWorkStealing is the paper's algorithm: stub spanning tree plus
	// work-stealing graph traversal. The recommended default.
	AlgWorkStealing Algorithm = iota
	// AlgSequentialBFS is the best sequential algorithm (the paper's
	// reference line).
	AlgSequentialBFS
	// AlgSequentialDFS is the iterative depth-first variant.
	AlgSequentialDFS
	// AlgSequentialUF is the union-find edge sweep.
	AlgSequentialUF
	// AlgSV is Shiloach-Vishkin graft-and-shortcut with CAS elections.
	AlgSV
	// AlgSVLocks is the lock-based SV election variant (slow; kept for
	// the paper's ablation).
	AlgSVLocks
	// AlgHCS is the Hirschberg-Chandra-Sarwate style hook-to-minimum
	// variant.
	AlgHCS
	// AlgAwerbuchShiloach is the textbook Awerbuch-Shiloach algorithm
	// with explicit star detection and conditional + unconditional
	// hooks.
	AlgAwerbuchShiloach
	// AlgLevelBFS is a level-synchronous parallel BFS: same O((n+m)/p)
	// work as the work-stealing algorithm but one barrier per BFS level
	// instead of O(1) barriers in total.
	AlgLevelBFS
	// AlgSpanUF is the edge-centric CAS-hook spanning forest: one flat
	// parallel sweep over the edges through a lock-free union-find
	// (link-by-index with smaller-to-larger hooking, path-compressed
	// finds, a CAS per tree-edge election). No frontier queues and no
	// per-level barriers, so it is indifferent to graph diameter; the
	// traversal's queue-free complement (see internal/spanuf).
	AlgSpanUF
)

// String returns the canonical short name used by the CLI tools.
func (a Algorithm) String() string {
	switch a {
	case AlgWorkStealing:
		return "workstealing"
	case AlgSequentialBFS:
		return "seqbfs"
	case AlgSequentialDFS:
		return "seqdfs"
	case AlgSequentialUF:
		return "sequf"
	case AlgSV:
		return "sv"
	case AlgSVLocks:
		return "svlocks"
	case AlgHCS:
		return "hcs"
	case AlgAwerbuchShiloach:
		return "as"
	case AlgLevelBFS:
		return "levelbfs"
	case AlgSpanUF:
		return "spanuf"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm converts a short name into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if a.String() == s {
			return a, nil
		}
	}
	return 0, fmt.Errorf("spantree: unknown algorithm %q", s)
}

// Algorithms lists every available algorithm.
func Algorithms() []Algorithm {
	return []Algorithm{
		AlgWorkStealing, AlgSequentialBFS, AlgSequentialDFS, AlgSequentialUF,
		AlgSV, AlgSVLocks, AlgHCS, AlgAwerbuchShiloach, AlgLevelBFS, AlgSpanUF,
	}
}

// Layout names the CSR layout the work-stealing traversal reads. There
// is one, LayoutCompact: the traversal always reads a uint32 mirror of
// the Graph.
//
// Deprecated: kept only for the benchmark under bench/, which parses
// the "layout" field of the server's graph info; delete with it.
type Layout int

// LayoutCompact is the only layout.
//
// Deprecated: see Layout.
const LayoutCompact Layout = 1

// ParseLayout accepts "compact", the only layout name.
//
// Deprecated: see Layout.
func ParseLayout(s string) (Layout, error) {
	if s != "compact" {
		return 0, fmt.Errorf("spantree: unknown layout %q (the traversal reads only the compact layout)", s)
	}
	return LayoutCompact, nil
}

// Options configures Find. The work-stealing algorithm reads the graph
// through a uint32 mirror of its CSR arrays, so it needs fewer than
// 2^32 adjacency slots (2^31 undirected edges); on a larger graph Find
// returns an error saying the graph does not fit the mirror. The other
// algorithms read the Graph directly and accept it.
type Options struct {
	// Algorithm selects the algorithm; the zero value is the paper's
	// work-stealing algorithm.
	Algorithm Algorithm
	// NumProcs is the number of virtual processors for the parallel
	// algorithms; 0 means 1. Sequential algorithms ignore it.
	NumProcs int
	// Seed drives all randomized behavior (stub walk, victim choice).
	Seed uint64
	// Deg2Eliminate enables the degree-2 elimination preprocessing for
	// the work-stealing algorithm.
	Deg2Eliminate bool
	// FallbackThreshold enables the pathological-case detection of the
	// work-stealing algorithm: when at least this many virtual
	// processors are simultaneously idle with nothing stealable, the run
	// finishes with a Shiloach-Vishkin pass. 0 disables detection.
	FallbackThreshold int
	// Model, when non-nil, accumulates Helman-JáJá cost-model counters
	// for the run (see the smpmodel package via Result.ModeledTime).
	Model *smpmodel.Model
	// Obs, when non-nil, is the observability recorder the run reports
	// into: per-worker counters (work, steals, queue high-water, barrier
	// waits) and, when the recorder has tracing enabled, an event
	// timeline. Supported by the work-stealing algorithm and the SV
	// family; create one fresh recorder per Find call with at least
	// NumProcs worker slots.
	Obs *obs.Recorder
	// Verify re-checks the output against the independent verifier
	// before returning (recommended in tests, off by default).
	Verify bool
	// ValidateInput runs graph.Validate on g before dispatch and returns
	// its typed *ValidationError on malformed CSR input instead of
	// computing an arbitrary forest (off by default: the builders always
	// produce valid graphs, so the check only pays off on hand-built or
	// deserialized inputs).
	ValidateInput bool
	// ChaosSeed, when non-zero, arms the deterministic fault-injection
	// layer with this seed for the run: seeded stalls, vetoed steals and
	// scheduling perturbations at the runtime's chaos points. It requires
	// a binary built with the chaos build tag (see ChaosEnabled) — Find
	// returns an error otherwise rather than silently running clean.
	ChaosSeed uint64
}

// Result is the outcome of Find.
type Result struct {
	// Parent is the spanning forest: Parent[v] is v's parent, or None
	// when v is the root of its component's tree.
	Parent []VID
	// Roots is the number of tree roots == connected components.
	Roots int
	// TreeEdges is the number of tree edges (n - Roots).
	TreeEdges int
	// Elapsed is the wall-clock time of the algorithm run (excluding
	// verification).
	Elapsed time.Duration
	// Algorithm echoes the algorithm that ran.
	Algorithm Algorithm
	// WorkStealing holds the work-stealing algorithm's statistics when
	// it ran (nil otherwise).
	WorkStealing *core.Stats
	// SV holds Shiloach-Vishkin statistics when AlgSV or AlgSVLocks ran
	// (nil otherwise).
	SV *spansv.Stats
	// HCS holds HCS statistics when AlgHCS ran (nil otherwise).
	HCS *spansv.Stats
	// AS holds Awerbuch-Shiloach statistics when AlgAwerbuchShiloach ran.
	AS *spansv.ASStats
	// LevelBFS holds level-synchronous BFS statistics when AlgLevelBFS
	// ran.
	LevelBFS *spanlevel.Stats
	// RandomMating holds statistics when FindRandomMating ran.
	RandomMating *spansv.MatingStats
	// SpanUF holds CAS-hook union-find statistics when AlgSpanUF ran
	// (nil otherwise).
	SpanUF *spanuf.Stats
}

// Find computes a spanning forest of g. It is FindContext with a
// background context: no cancellation, no deadline.
func Find(g *Graph, opt Options) (*Result, error) {
	return FindContext(context.Background(), g, opt)
}

// FindContext is Find under a context: when ctx is canceled or its
// deadline expires, every worker observes the shared stop flag at its
// next chunk boundary, the team drains through abortable barriers (no
// goroutine is left parked), and FindContext returns ErrCanceled or
// ErrDeadline with whatever partial statistics the run accumulated. An
// already-expired context is rejected before any worker starts.
//
// A worker panic does not propagate: the run trips the same flag, the
// team drains, and the work-stealing algorithm degrades to sequential
// BFS — the caller still receives a valid forest, with the structured
// PanicError in Result.WorkStealing.Panic. The other parallel
// algorithms return the PanicError instead.
func FindContext(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("spantree: nil graph")
	}
	p := opt.NumProcs
	if p == 0 {
		p = 1
	}
	if p < 0 {
		return nil, fmt.Errorf("spantree: NumProcs = %d, need >= 0", p)
	}
	if opt.ValidateInput {
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("spantree: %w", err)
		}
	}
	var inj *chaos.Injector
	if opt.ChaosSeed != 0 {
		if !chaos.Enabled {
			return nil, fmt.Errorf("spantree: ChaosSeed is set but this binary was built without the chaos build tag (go build -tags chaos)")
		}
		inj = chaos.New(chaos.DefaultConfig(opt.ChaosSeed, p), opt.Obs)
	}
	cancel := &fault.Flag{}
	stop := fault.Watch(ctx, cancel)
	defer stop()
	// An already-expired context is rejected synchronously: the Watch
	// goroutine trips the flag eventually, but "eventually" must not
	// mean a dead context still launches a team.
	if err := ctx.Err(); err != nil {
		cancel.TripContext(err)
		return nil, cancel.Err()
	}
	res := &Result{Algorithm: opt.Algorithm}
	family := spansv.Options{NumProcs: p, Model: opt.Model, Obs: opt.Obs, Cancel: cancel, Chaos: inj}
	start := time.Now()
	switch opt.Algorithm {
	case AlgWorkStealing:
		parent, stats, err := core.SpanningForest(g, core.Options{
			NumProcs:          p,
			Seed:              opt.Seed,
			Model:             opt.Model,
			Obs:               opt.Obs,
			Deg2Eliminate:     opt.Deg2Eliminate,
			FallbackThreshold: opt.FallbackThreshold,
			Cancel:            cancel,
			Chaos:             inj,
		})
		if err != nil {
			return nil, err
		}
		res.Parent, res.WorkStealing = parent, &stats
	case AlgSequentialBFS, AlgSequentialDFS, AlgSequentialUF:
		// The sequential baselines have no chunk boundaries to poll; an
		// already-tripped flag is still honored before the scan starts.
		if cancel.Tripped() {
			return nil, cancel.Err()
		}
		switch opt.Algorithm {
		case AlgSequentialBFS:
			res.Parent = spanseq.BFS(g, opt.Model.Probe(0))
		case AlgSequentialDFS:
			res.Parent = spanseq.DFS(g, opt.Model.Probe(0))
		default:
			res.Parent = spanseq.UnionFind(g, opt.Model.Probe(0))
		}
	case AlgSV, AlgSVLocks:
		parent, stats, err := spansv.SpanningForest(g, family, opt.Algorithm == AlgSVLocks)
		if err != nil {
			return nil, err
		}
		res.Parent, res.SV = parent, &stats
	case AlgHCS:
		parent, stats, err := spansv.HCS(g, family)
		if err != nil {
			return nil, err
		}
		res.Parent, res.HCS = parent, &stats
	case AlgAwerbuchShiloach:
		parent, stats, err := spansv.AwerbuchShiloach(g, family)
		if err != nil {
			return nil, err
		}
		res.Parent, res.AS = parent, &stats
	case AlgLevelBFS:
		parent, stats, err := spanlevel.SpanningForest(g, spanlevel.Options{
			NumProcs: p,
			Model:    opt.Model,
			Cancel:   cancel,
			Chaos:    inj,
		})
		if err != nil {
			return nil, err
		}
		res.Parent = parent
		res.LevelBFS = &stats
	case AlgSpanUF:
		parent, stats, err := spanuf.SpanningForest(g, spanuf.Options{
			NumProcs: p,
			Model:    opt.Model,
			Obs:      opt.Obs,
			Cancel:   cancel,
			Chaos:    inj,
		})
		if err != nil {
			return nil, err
		}
		res.Parent = parent
		res.SpanUF = &stats
	default:
		return nil, fmt.Errorf("spantree: unknown algorithm %v", opt.Algorithm)
	}
	res.Elapsed = time.Since(start)
	for _, p := range res.Parent {
		if p == None {
			res.Roots++
		}
	}
	res.TreeEdges = len(res.Parent) - res.Roots
	if opt.Verify {
		if err := verify.Forest(g, res.Parent); err != nil {
			return nil, fmt.Errorf("spantree: %v produced an invalid forest: %w", opt.Algorithm, err)
		}
	}
	return res, nil
}

// Verify independently checks that parent is a valid spanning forest of
// g (see the verify package for the exact conditions).
func Verify(g *Graph, parent []VID) error {
	return verify.Forest(g, parent)
}

// ConnectedComponents labels every vertex with a component id in
// [0, count) derived from a spanning forest computed by the
// work-stealing algorithm with p virtual processors.
func ConnectedComponents(g *Graph, p int, seed uint64) ([]VID, int, error) {
	return conncomp.Labels(g, p, seed)
}

// ConnectedComponentsCount returns only the number of connected
// components of g: the root count of the spanning forest the
// work-stealing algorithm computes on p virtual processors, with no
// labelling pass.
func ConnectedComponentsCount(g *Graph, p int, seed uint64) (int, error) {
	_, st, err := core.SpanningForest(g, core.Options{NumProcs: p, Seed: seed})
	if err != nil {
		return 0, err
	}
	return st.Roots, nil
}
