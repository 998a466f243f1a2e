package spantree_test

import (
	"fmt"

	"spantree"
)

// The examples below are compiled and executed by go test, and rendered
// by godoc as usage documentation for the public API.

func ExampleFind() {
	// A small torus — one of the paper's regular-mesh workloads.
	g := spantree.NewTorus2D(32, 32)

	res, err := spantree.Find(g, spantree.Options{
		Algorithm: spantree.AlgWorkStealing,
		NumProcs:  4,
		Seed:      1,
		Verify:    true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("tree edges:", res.TreeEdges)
	fmt.Println("components:", res.Roots)
	// Output:
	// tree edges: 1023
	// components: 1
}

func ExampleFind_comparingAlgorithms() {
	g := spantree.NewConnectedRandomGraph(2000, 3000, 7)
	for _, alg := range []spantree.Algorithm{
		spantree.AlgSequentialBFS,
		spantree.AlgSV,
		spantree.AlgWorkStealing,
	} {
		res, err := spantree.Find(g, spantree.Options{
			Algorithm: alg, NumProcs: 4, Seed: 7, Verify: true,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d edges\n", alg, res.TreeEdges)
	}
	// Output:
	// seqbfs: 1999 edges
	// sv: 1999 edges
	// workstealing: 1999 edges
}

func ExampleVerify() {
	g := spantree.NewChain(4) // 0-1-2-3
	// A hand-built parent array: 1 is the root.
	parent := []spantree.VID{1, spantree.None, 1, 2}
	fmt.Println("valid:", spantree.Verify(g, parent) == nil)

	// Break it: vertex 3 claims non-adjacent 0 as its parent.
	parent[3] = 0
	fmt.Println("still valid:", spantree.Verify(g, parent) == nil)
	// Output:
	// valid: true
	// still valid: false
}

func ExampleConnectedComponents() {
	// Two separate triangles.
	g, err := spantree.NewGraph(6, []spantree.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
	})
	if err != nil {
		panic(err)
	}
	labels, count, err := spantree.ConnectedComponents(g, 2, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("components:", count)
	fmt.Println("same side:", labels[0] == labels[1], labels[0] == labels[5])
	// Output:
	// components: 2
	// same side: true false
}

func ExampleEliminateDegree2() {
	// The paper's degenerate chain collapses to its two endpoints.
	g := spantree.NewChain(1000)
	red := spantree.EliminateDegree2(g)
	fmt.Println("reduced vertices:", red.Reduced.NumVertices())
	fmt.Println("eliminated:", red.NumEliminated())
	// Output:
	// reduced vertices: 2
	// eliminated: 998
}
