// Package gen implements every graph family used in the paper's
// experimental study (Section 4, "Experimental Data"), plus a few extra
// families used by the test suite:
//
//   - 2D torus (regular mesh, 4-neighbor, wraparound)
//   - 2D60 / 3D40: 2D and 3D meshes where each lattice edge is present
//     with probability 60% / 40%
//   - random graphs G(n,m): m unique edges added uniformly at random
//   - k-regular geometric graphs (k nearest neighbors of uniform random
//     points in the unit square); AD3 is the k=3 instance
//   - geographic graphs, flat and hierarchical mode, modeling wide-area
//     network (Internet) topologies with distance-dependent edge
//     probability and backbone/domain/subdomain structure
//   - degenerate chain graphs (the paper's pathological input)
//
// All generators are deterministic functions of their parameters and an
// explicit 64-bit seed.
package gen

import (
	"fmt"
	"math"
	"sort"

	"spantree/internal/graph"
	"spantree/internal/xrand"
)

// Spec identifies a generator and its parameters for the registry-based
// tools (cmd/graphgen, the benchmark harness).
type Spec struct {
	// Kind is the generator name, e.g. "torus2d", "random", "ad3".
	Kind string
	// N is the requested number of vertices (generators may round, e.g.
	// to a square side; the actual count is in the produced graph).
	N int
	// M is the requested number of edges (random graphs only).
	M int
	// K is the neighbor count (geometric graphs only).
	K int
	// Seed drives all randomness.
	Seed uint64
	// RandomLabel applies a random vertex relabeling after generation,
	// reproducing the paper's "random labeling" variants.
	RandomLabel bool
}

// Generate builds the graph described by s. It returns an error for an
// unknown Kind or invalid parameters: a negative N, M or K.
func Generate(s Spec) (*graph.Graph, error) {
	switch {
	case s.N < 0:
		return nil, fmt.Errorf("gen: negative vertex count %d", s.N)
	case s.M < 0:
		return nil, fmt.Errorf("gen: negative edge count %d", s.M)
	case s.K < 0:
		return nil, fmt.Errorf("gen: negative neighbor count %d", s.K)
	}
	var g *graph.Graph
	switch s.Kind {
	case "torus2d":
		g = Torus2D(sideLen(s.N), sideLen(s.N))
	case "mesh2d60":
		g = Mesh2D(sideLen(s.N), sideLen(s.N), 0.60, s.Seed)
	case "mesh3d40":
		side := cubeLen(s.N)
		g = Mesh3D(side, side, side, 0.40, s.Seed)
	case "random":
		g = Random(s.N, s.randomM(), s.Seed)
	case "geometric":
		g = Geometric(s.N, s.geometricK(), s.Seed)
	case "ad3":
		g = AD3(s.N, s.Seed)
	case "geoflat":
		g = GeoFlat(s.N, DefaultGeoFlatParams(), s.Seed)
	case "geohier":
		g = GeoHier(s.N, DefaultGeoHierParams(), s.Seed)
	case "chain":
		g = Chain(s.N)
	case "star":
		g = Star(s.N)
	case "cycle":
		g = Cycle(s.N)
	case "complete":
		g = Complete(s.N)
	case "bintree":
		g = BinaryTree(s.N)
	case "grid2d":
		g = Grid2D(sideLen(s.N), sideLen(s.N))
	case "caterpillar":
		g = Caterpillar(s.N)
	default:
		return nil, fmt.Errorf("gen: unknown generator kind %q", s.Kind)
	}
	if s.RandomLabel {
		g = graph.RandomRelabel(g, s.Seed^0xDEADBEEF)
	}
	return g, nil
}

// randomM is a random graph's edge count: M, or the paper's Fig. 3
// density m = 1.5n when M is 0.
func (s Spec) randomM() int {
	if s.M == 0 {
		return 3 * s.N / 2
	}
	return s.M
}

// geometricK is a geometric graph's neighbor count: K, or 3 when K is 0.
func (s Spec) geometricK() int {
	if s.K == 0 {
		return 3
	}
	return s.K
}

// EdgeBound returns an upper bound on the number of edges of the graph
// Generate(s) builds, computed from s alone, so that a caller can refuse
// a spec before anything is allocated. For every kind but geoflat it is
// the exact count or a worst case; geohier's worst case counts every
// pair of backbone vertices, which its Waxman pass may join. A geoflat
// graph's edges are coin flips over pairs of nearby points, with a mean
// of about 3.8 per vertex at every size, and its bound is 4 per vertex.
// An unknown kind has bound 0, and an N beyond the int32 vertex range
// has the largest int64.
func EdgeBound(s Spec) int64 {
	if s.N > math.MaxInt32 {
		return math.MaxInt64
	}
	n := int64(s.N)
	switch s.Kind {
	case "torus2d", "mesh2d60", "grid2d":
		side := int64(sideLen(s.N))
		return 2 * side * side
	case "mesh3d40":
		side := int64(cubeLen(s.N))
		return 3 * side * side * side
	case "random":
		return min(int64(s.randomM()), n*(n-1)/2)
	case "geometric":
		return n * min(int64(s.geometricK()), n-1)
	case "ad3":
		return n * min(3, n-1)
	case "geoflat":
		return 4 * n
	case "geohier":
		bb := int64(DefaultGeoHierParams().backbone(s.N))
		return 2*n + bb*(bb-1)/2
	case "chain", "star", "cycle", "bintree", "caterpillar":
		return n
	case "complete":
		return n * (n - 1) / 2
	}
	return 0
}

// Kinds lists the registry's generator names in sorted order.
func Kinds() []string {
	ks := []string{
		"torus2d", "mesh2d60", "mesh3d40", "random", "geometric", "ad3",
		"geoflat", "geohier", "chain", "star", "cycle", "complete",
		"bintree", "grid2d", "caterpillar",
	}
	sort.Strings(ks)
	return ks
}

// sideLen returns the side of the smallest square with at least n cells.
func sideLen(n int) int {
	s := 1
	for s*s < n {
		s++
	}
	return s
}

// cubeLen returns the side of the smallest cube with at least n cells.
func cubeLen(n int) int {
	s := 1
	for s*s*s < n {
		s++
	}
	return s
}

// rng returns the generator stream for a seed and a purpose tag, so that
// different uses of the same seed stay decorrelated.
func rng(seed, tag uint64) *xrand.Rand {
	return xrand.New(seed).Split(tag)
}
