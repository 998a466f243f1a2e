// Robustness: the parallel spanning forest as a connectivity probe.
//
// The example audits a hierarchical network topology: it fails the
// router with the most links and re-runs the parallel spanning-forest
// algorithm to count the fragments the failure leaves behind. The
// number of tree roots is the number of connected components.
package main

import (
	"fmt"
	"log"
	"runtime"

	"spantree"
)

func main() {
	const n = 1 << 15
	p := runtime.GOMAXPROCS(0)

	g := spantree.NewGeoHier(n, 4242)
	fmt.Printf("auditing %v (avg degree %.2f)\n", g, g.AvgDegree())

	before, err := spantree.ConnectedComponentsCount(g, p, 1)
	if err != nil {
		log.Fatal(err)
	}
	victim := busiest(g)
	damaged := removeVertex(g, victim)
	after, err := spantree.ConnectedComponentsCount(damaged, p, 1)
	if err != nil {
		log.Fatal(err)
	}
	// removeVertex keeps the victim as an isolated vertex, which is one
	// extra component of its own; the rest are fragments it cut off.
	fmt.Printf("components before failing router %d (%d links): %d\n", victim, g.Degree(victim), before)
	fmt.Printf("components after (victim isolated): %d\n", after)
	fmt.Printf("failure of router %d leaves %d extra fragments\n", victim, after-before-1)
}

// busiest returns the vertex of highest degree, the lowest id on a tie.
func busiest(g *spantree.Graph) spantree.VID {
	var best spantree.VID
	for v := 1; v < g.NumVertices(); v++ {
		if g.Degree(spantree.VID(v)) > g.Degree(best) {
			best = spantree.VID(v)
		}
	}
	return best
}

// removeVertex returns a copy of g with all edges incident to v removed
// (v remains as an isolated vertex, keeping ids stable).
func removeVertex(g *spantree.Graph, v spantree.VID) *spantree.Graph {
	var edges []spantree.Edge
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Neighbors(spantree.VID(u)) {
			if spantree.VID(u) < w && spantree.VID(u) != v && w != v {
				edges = append(edges, spantree.Edge{U: spantree.VID(u), V: w})
			}
		}
	}
	out, err := spantree.NewGraph(g.NumVertices(), edges)
	if err != nil {
		log.Fatal(err)
	}
	return out
}
