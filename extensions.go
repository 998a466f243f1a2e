package spantree

import (
	"fmt"
	"time"

	"spantree/internal/spansv"
)

// FindRandomMating computes a spanning forest with the random-mating
// (Reif/Phillips-style) algorithm using p virtual processors, the
// baseline family from the related experimental studies.
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
