// Package conncomp derives connected-components labelings from spanning
// forests, one of the applications the paper names as future work
// ("we plan to apply the techniques discussed in this paper to ...
// connected components"). A spanning forest computed by the
// work-stealing algorithm has exactly one root per component, so
// resolving every vertex to its tree root by a path-compressing walk
// labels the components in O(n) additional work.
package conncomp

import (
	"fmt"

	"spantree/internal/core"
	"spantree/internal/graph"
)

// Labels computes component labels for g using the work-stealing
// spanning-forest algorithm with p virtual processors. Labels are dense
// ids in [0, count) assigned in order of each component's root vertex.
func Labels(g *graph.Graph, p int, seed uint64) ([]graph.VID, int, error) {
	parent, _, err := core.SpanningForest(g, core.Options{NumProcs: p, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	return FromForest(parent)
}

// FromForest converts a parent-array spanning forest into dense
// component labels. It returns an error if the parent array contains a
// cycle (i.e. is not a forest).
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
