package gen

import (
	"fmt"

	"spantree/internal/graph"
)

// Torus2D returns the rows x cols torus: every vertex is connected to
// its four lattice neighbors with wraparound. Vertices are numbered in
// row-major order, the paper's locality-friendly labeling; apply
// graph.RandomRelabel for the "random labeling" variant.
func Torus2D(rows, cols int) *graph.Graph {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gen: Torus2D(%d,%d) with negative side", rows, cols))
	}
	n := rows * cols
	b := graph.NewBuilder(n)
	b.Reserve(2 * n)
	id := func(r, c int) graph.VID { return graph.VID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if cols > 1 {
				b.AddEdge(id(r, c), id(r, (c+1)%cols))
			}
			if rows > 1 {
				b.AddEdge(id(r, c), id((r+1)%rows, c))
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("torus2d-%dx%d", rows, cols)
	return g
}

// Grid2D returns the rows x cols grid (mesh without wraparound),
// row-major numbering.
func Grid2D(rows, cols int) *graph.Graph {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gen: Grid2D(%d,%d) with negative side", rows, cols))
	}
	n := rows * cols
	b := graph.NewBuilder(n)
	b.Reserve(2 * n)
	id := func(r, c int) graph.VID { return graph.VID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("grid2d-%dx%d", rows, cols)
	return g
}

// Mesh2D is the paper's "2D60"-style irregular mesh: a rows x cols grid
// in which each lattice edge is independently present with probability
// prob. Mesh2D(side, side, 0.60, seed) reproduces 2D60.
func Mesh2D(rows, cols int, prob float64, seed uint64) *graph.Graph {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("gen: Mesh2D(%d,%d) with negative side", rows, cols))
	}
	r0 := rng(seed, 'M'<<8|'2')
	n := rows * cols
	b := graph.NewBuilder(n)
	id := func(r, c int) graph.VID { return graph.VID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols && r0.Prob(prob) {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows && r0.Prob(prob) {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("mesh2d-%dx%d-p%.0f", rows, cols, prob*100)
	return g
}

// Mesh3D is the paper's "3D40"-style irregular mesh: an x*y*z lattice in
// which each of the three axis-aligned lattice edges per vertex is
// independently present with probability prob. Mesh3D(s, s, s, 0.40,
// seed) reproduces 3D40.
func Mesh3D(x, y, z int, prob float64, seed uint64) *graph.Graph {
	if x < 0 || y < 0 || z < 0 {
		panic(fmt.Sprintf("gen: Mesh3D(%d,%d,%d) with negative side", x, y, z))
	}
	r0 := rng(seed, 'M'<<8|'3')
	n := x * y * z
	b := graph.NewBuilder(n)
	id := func(i, j, k int) graph.VID { return graph.VID((i*y+j)*z + k) }
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				if i+1 < x && r0.Prob(prob) {
					b.AddEdge(id(i, j, k), id(i+1, j, k))
				}
				if j+1 < y && r0.Prob(prob) {
					b.AddEdge(id(i, j, k), id(i, j+1, k))
				}
				if k+1 < z && r0.Prob(prob) {
					b.AddEdge(id(i, j, k), id(i, j, k+1))
				}
			}
		}
	}
	g := b.Build()
	g.Name = fmt.Sprintf("mesh3d-%dx%dx%d-p%.0f", x, y, z, prob*100)
	return g
}
