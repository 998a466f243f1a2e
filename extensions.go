package spantree

import (
	"fmt"
	"time"

	"spantree/internal/bicc"
	"spantree/internal/boruvka"
	"spantree/internal/ears"
	"spantree/internal/graph"
	"spantree/internal/spansv"
	"spantree/internal/treeops"
	"spantree/internal/verify"
)

// Extensions beyond the paper's headline algorithm: the random-mating
// baseline family from the related experimental studies, and the
// parallel Borůvka minimum-spanning-forest algorithm from the paper's
// future-work list.

// FindRandomMating computes a spanning forest with the random-mating
// (Reif/Phillips-style) algorithm using p virtual processors.
func FindRandomMating(g *Graph, p int, seed uint64) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("spantree: nil graph")
	}
	if p < 1 {
		p = 1
	}
	start := time.Now()
	parent, st, err := spansv.RandomMating(g, spansv.Options{NumProcs: p}, seed)
	if err != nil {
		return nil, err
	}
	res := &Result{Parent: parent, Elapsed: time.Since(start)}
	for _, pv := range parent {
		if pv == None {
			res.Roots++
		}
	}
	res.TreeEdges = len(parent) - res.Roots
	res.RandomMating = &st
	return res, nil
}

// WeightFunc assigns a symmetric weight to an undirected edge.
type WeightFunc = boruvka.WeightFunc

// MSTResult is the outcome of FindMST.
type MSTResult struct {
	// Parent is the minimum spanning forest as a parent array.
	Parent []VID
	// TotalWeight is the sum of the selected edges' weights.
	TotalWeight float64
	// Rounds is the number of Borůvka rounds.
	Rounds int
	// TreeEdges is the number of forest edges.
	TreeEdges int
	// Elapsed is the wall-clock running time.
	Elapsed time.Duration
}

// FindMST computes a minimum spanning forest of g with parallel Borůvka
// on p virtual processors. A nil weight function selects deterministic
// pseudo-random weights (a reproducible random spanning forest). A
// weight function that returns NaN for any edge is rejected with a
// *ValidationError of code NaNWeight.
func FindMST(g *Graph, p int, weight WeightFunc) (*MSTResult, error) {
	if g == nil {
		return nil, fmt.Errorf("spantree: nil graph")
	}
	if p < 1 {
		p = 1
	}
	start := time.Now()
	parent, st, err := boruvka.MinimumSpanningForest(g, boruvka.Options{NumProcs: p, Weight: weight})
	if err != nil {
		return nil, err
	}
	if err := verify.Forest(g, parent); err != nil {
		return nil, fmt.Errorf("spantree: Borůvka produced an invalid forest: %w", err)
	}
	return &MSTResult{
		Parent:      parent,
		TotalWeight: st.TotalWeight,
		Rounds:      st.Rounds,
		TreeEdges:   st.TreeEdges,
		Elapsed:     time.Since(start),
	}, nil
}

// ReferenceMST returns the Kruskal reference minimum spanning forest's
// edges and total weight, for validating FindMST results in tests and
// benchmarks.
func ReferenceMST(g *Graph, weight WeightFunc) ([]Edge, float64) {
	return boruvka.SequentialMSF(g, weight)
}

// PseudoDiameter returns a lower bound on g's diameter from a
// double-BFS sweep starting at the given vertex.
func PseudoDiameter(g *Graph, start VID) int {
	return graph.PseudoDiameter(g, start)
}

// Biconnected is the biconnected decomposition of a graph: blocks,
// articulation points and bridges. Spanning trees are the building
// block the paper motivates with exactly this problem.
type Biconnected = bicc.Result

// BiconnectedComponents computes the biconnected decomposition of g
// (blocks, articulation points, bridges) via a DFS spanning tree.
func BiconnectedComponents(g *Graph) *Biconnected {
	return bicc.Compute(g)
}

// EarChain is one chain of an ear (chain) decomposition.
type EarChain = ears.Chain

// EarDecomposition is a Schmidt chain decomposition of a graph. On
// 2-edge-connected inputs the chains form an ear decomposition.
type EarDecomposition = ears.Decomposition

// Ears computes the chain (ear) decomposition of g over a DFS spanning
// tree. Edges on no chain are exactly the bridges of g.
func Ears(g *Graph) *EarDecomposition { return ears.Compute(g) }

// TwoEdgeConnected reports whether g is connected and bridgeless.
func TwoEdgeConnected(g *Graph) bool { return ears.TwoEdgeConnected(g) }

// IsBiconnected reports whether g is biconnected (connected with no
// articulation points), by Schmidt's chain criterion.
func IsBiconnected(g *Graph) bool { return ears.Biconnected(g) }

// Tree is an analyzed spanning forest with precomputed depths, orders
// and (after EnableLCA) ancestor tables — the downstream toolkit for
// using spanning trees as a building block.
type Tree = treeops.Forest

// AnalyzeForest validates a parent array and precomputes its tree
// structure for depth/LCA/subtree queries.
func AnalyzeForest(parent []VID) (*Tree, error) { return treeops.New(parent) }

// RerootTree returns a copy of the forest with newRoot as its tree's
// root.
func RerootTree(parent []VID, newRoot VID) []VID { return treeops.Reroot(parent, newRoot) }
