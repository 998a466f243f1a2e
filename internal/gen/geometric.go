package gen

import (
	"cmp"
	"fmt"
	"slices"

	"spantree/internal/graph"
)

// Geometric returns the paper's k-regular geometric graph: n points
// chosen uniformly at random in the unit square, each vertex connected
// to its k nearest neighbors (by Euclidean distance). These are the
// inputs Moret and Shapiro used in their sequential MST study; AD3 is
// the k = 3 member of the family.
//
// Nearest neighbors are found with a uniform grid: cells are scanned in
// growing Chebyshev rings around the query point until the k-th best
// distance is covered by the scanned radius, giving near-linear expected
// time for uniform points.
func Geometric(n, k int, seed uint64) *graph.Graph {
	if n < 0 {
		panic(fmt.Sprintf("gen: Geometric(%d,%d) with negative n", n, k))
	}
	if k < 1 {
		panic(fmt.Sprintf("gen: Geometric(%d,%d) needs k >= 1", n, k))
	}
	if k > n-1 {
		k = n - 1
	}
	r := rng(seed, 'G')
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
		ys[i] = r.Float64()
	}
	b := graph.NewBuilder(n)
	b.Reserve(n * k)
	if n > 1 && k >= 1 {
		grid := newPointGrid(xs, ys, k)
		nn := make([]graph.VID, 0, k)
		for v := 0; v < n; v++ {
			nn = grid.kNearest(graph.VID(v), k, nn[:0])
			for _, w := range nn {
				b.AddEdge(graph.VID(v), w)
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("geometric-n%d-k%d", n, k)
	return g
}

// AD3 is the geometric graph with k = 3, the "tertiary" input used by
// Greiner, Hsu et al., Krishnamurthy et al., and Goddard et al.
func AD3(n int, seed uint64) *graph.Graph {
	g := Geometric(n, 3, seed)
	g.Name = fmt.Sprintf("ad3-n%d", n)
	return g
}

// pointGrid buckets unit-square points into side x side cells for
// k-nearest-neighbor queries.
type pointGrid struct {
	xs, ys []float64
	side   int
	cells  [][]graph.VID
	cands  []nnCand // kNearest's candidate buffer, reused across queries
}

func newPointGrid(xs, ys []float64, k int) *pointGrid {
	n := len(xs)
	// Aim for ~k points per cell so one ring usually suffices.
	side := 1
	for side*side*(k+1) < n {
		side++
	}
	g := &pointGrid{xs: xs, ys: ys, side: side, cells: make([][]graph.VID, side*side)}
	for i := 0; i < n; i++ {
		c := g.cellOf(xs[i], ys[i])
		g.cells[c] = append(g.cells[c], graph.VID(i))
	}
	return g
}

func (g *pointGrid) cellOf(x, y float64) int {
	cx := int(x * float64(g.side))
	cy := int(y * float64(g.side))
	if cx >= g.side {
		cx = g.side - 1
	}
	if cy >= g.side {
		cy = g.side - 1
	}
	return cy*g.side + cx
}

type nnCand struct {
	d2 float64
	v  graph.VID
}

func byDist(a, b nnCand) int { return cmp.Compare(a.d2, b.d2) }

// kNearest returns the k nearest neighbors of point v (excluding v),
// appending into out.
func (g *pointGrid) kNearest(v graph.VID, k int, out []graph.VID) []graph.VID {
	x, y := g.xs[v], g.ys[v]
	cx := int(x * float64(g.side))
	cy := int(y * float64(g.side))
	if cx >= g.side {
		cx = g.side - 1
	}
	if cy >= g.side {
		cy = g.side - 1
	}
	cell := 1.0 / float64(g.side)
	cands := g.cands[:0]
	for ring := 0; ; ring++ {
		// Scan the cells whose Chebyshev distance from (cx,cy) equals ring.
		for dy := -ring; dy <= ring; dy++ {
			ny := cy + dy
			if ny < 0 || ny >= g.side {
				continue
			}
			for dx := -ring; dx <= ring; dx++ {
				if maxAbs(dx, dy) != ring {
					continue
				}
				nx := cx + dx
				if nx < 0 || nx >= g.side {
					continue
				}
				for _, w := range g.cells[ny*g.side+nx] {
					if w == v {
						continue
					}
					ddx, ddy := g.xs[w]-x, g.ys[w]-y
					cands = append(cands, nnCand{ddx*ddx + ddy*ddy, w})
				}
			}
		}
		// Points strictly within distance ring*cell of (x,y) are all inside
		// cells of Chebyshev radius <= ring+1 that we have scanned once
		// ring covers them; the safe guaranteed-covered radius after
		// scanning rings 0..ring is (ring)*cell.
		safe := float64(ring) * cell
		if len(cands) >= k {
			slices.SortFunc(cands, byDist)
			kth := cands[k-1].d2
			if kth <= safe*safe {
				break
			}
		}
		// The whole square is covered once ring spans the grid.
		if ring >= 2*g.side {
			slices.SortFunc(cands, byDist)
			break
		}
	}
	g.cands = cands
	if len(cands) > k {
		cands = cands[:k]
	}
	for _, c := range cands {
		out = append(out, c.v)
	}
	return out
}

func maxAbs(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}
