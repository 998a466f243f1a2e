// Package conncomp derives connected-components labelings from spanning
// forests, one of the applications the paper names as future work
// ("we plan to apply the techniques discussed in this paper to ...
// connected components"). A spanning forest computed by the
// work-stealing algorithm has exactly one root per component, so
// resolving every vertex to its tree root labels the components in
// O(n) additional work — sequentially by a path-compressing walk, or in
// parallel by pointer jumping on the shared dynamic scheduler.
package conncomp

import (
	"fmt"

	"spantree/internal/chaos"
	"spantree/internal/core"
	"spantree/internal/fault"
	"spantree/internal/graph"
	"spantree/internal/par"
)

// Options configures a parallel labeling run.
type Options struct {
	// NumProcs is the number of virtual processors p (>= 1).
	NumProcs int
	// Seed drives the spanning-forest traversal's randomness.
	Seed uint64
	// Cancel is the run's cooperative stop flag (nil never trips),
	// shared between the forest traversal and the labeling sweeps;
	// Chaos the fault injector (nil injects nothing).
	Cancel *fault.Flag
	Chaos  *chaos.Injector
}

// Labels computes component labels for g using the work-stealing
// spanning-forest algorithm with p virtual processors. Labels are dense
// ids in [0, count) assigned in order of each component's root vertex.
func Labels(g *graph.Graph, p int, seed uint64) ([]graph.VID, int, error) {
	return LabelsOpt(g, Options{NumProcs: p, Seed: seed})
}

// LabelsOpt is Labels with full scheduler configuration.
func LabelsOpt(g *graph.Graph, opt Options) ([]graph.VID, int, error) {
	parent, _, err := core.SpanningForest(g, core.Options{
		NumProcs: opt.NumProcs,
		Seed:     opt.Seed,
		Cancel:   opt.Cancel,
		Chaos:    opt.Chaos,
	})
	if err != nil {
		return nil, 0, err
	}
	return FromForestP(parent, opt)
}

// FromForest converts a parent-array spanning forest into dense
// component labels. It returns an error if the parent array contains a
// cycle (i.e. is not a forest). This is the sequential reference; see
// FromForestP for the parallel pointer-jumping version.
func FromForest(parent []graph.VID) ([]graph.VID, int, error) {
	n := len(parent)
	rootID := make([]graph.VID, n)
	for i := range rootID {
		rootID[i] = graph.None
	}
	count := 0
	// First pass: number the roots in vertex order.
	for v := 0; v < n; v++ {
		if parent[v] == graph.None {
			rootID[v] = graph.VID(count)
			count++
		}
	}
	// Second pass: resolve every vertex by walking up, path-compressing
	// the labels. The walk length is bounded by n; exceeding it means a
	// cycle.
	var path []graph.VID
	for v := 0; v < n; v++ {
		if rootID[v] != graph.None {
			continue
		}
		path = path[:0]
		cur := graph.VID(v)
		for rootID[cur] == graph.None {
			if len(path) > n {
				return nil, 0, fmt.Errorf("conncomp: parent array contains a cycle near vertex %d", v)
			}
			path = append(path, cur)
			cur = parent[cur]
			if cur == graph.None {
				return nil, 0, fmt.Errorf("conncomp: inconsistent parent array at vertex %d", v)
			}
		}
		label := rootID[cur]
		for _, u := range path {
			rootID[u] = label
		}
	}
	return rootID, count, nil
}

// FromForestP is the parallel FromForest: pointer jumping over a scratch
// copy of the forest, run on the shared dynamic scheduler. Each round
// doubles the distance every vertex has climbed, so ceil(log2 n) rounds
// resolve any forest; a parent array that is still moving after that
// many rounds, or that converges onto a non-root (a self-loop or a
// power-of-two cycle collapses in place), is rejected as cyclic. The
// rounds double-buffer, so workers only ever read the previous round's
// array — no per-element synchronization is needed.
func FromForestP(parent []graph.VID, opt Options) ([]graph.VID, int, error) {
	if opt.NumProcs <= 1 {
		return FromForest(parent)
	}
	n := len(parent)
	// Number the roots in vertex order, as in the sequential first pass.
	rootNum := make([]graph.VID, n)
	count := 0
	for v := 0; v < n; v++ {
		if parent[v] == graph.None {
			rootNum[v] = graph.VID(count)
			count++
		}
	}
	maxRounds := 2
	for m := 1; m < n; m *= 2 {
		maxRounds++
	}
	bufs := [2][]graph.VID{make([]graph.VID, n), make([]graph.VID, n)}
	labels := make([]graph.VID, n)
	cyclic := false

	team := par.NewTeam(opt.NumProcs, nil).
		Cancel(opt.Cancel).Chaos(opt.Chaos)
	err := team.RunErr(func(c *par.Ctx) {
		// Roots point at themselves so jumping is a no-op on them.
		c.ForDynamic(n, func(v int) {
			p := parent[v]
			if p == graph.None {
				p = graph.VID(v)
			}
			bufs[0][v] = p
		})
		c.Barrier()
		r := 0
		converged := false
		for r < maxRounds {
			src, dst := bufs[r&1], bufs[(r+1)&1]
			changed := false
			c.ForDynamic(n, func(v int) {
				u := src[v]
				uu := src[u]
				dst[v] = uu
				if uu != u {
					changed = true
				}
			})
			r++
			// ReduceOr barriers the round: every worker sees the same
			// verdict, so they all leave (or stay in) the loop together.
			if !c.ReduceOr(changed) {
				converged = true
				break
			}
		}
		final := bufs[r&1]
		bad := !converged
		if converged {
			mine := false
			c.ForDynamic(n, func(v int) {
				if parent[final[v]] != graph.None {
					mine = true
				}
			})
			bad = c.ReduceOr(mine)
		}
		if bad {
			if c.TID() == 0 {
				cyclic = true
			}
			return
		}
		c.ForDynamic(n, func(v int) {
			labels[v] = rootNum[final[v]]
		})
	})
	if err != nil {
		return nil, 0, err
	}
	if cyclic {
		return nil, 0, fmt.Errorf("conncomp: parent array is not a forest (cycle detected by pointer jumping)")
	}
	return labels, count, nil
}
