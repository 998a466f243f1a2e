package spantree

import "spantree/internal/core"

// Test-only access to the work-stealing algorithm's ablation toggles,
// which are deliberately not part of the public Options.

type wsToggles struct {
	noSteal   bool
	noStub    bool
	chunkSize int // 0 = the default drain chunk
}

func findWS(g *Graph, p int, t wsToggles) ([]VID, error) {
	parent, _, err := core.SpanningForest(g, core.Options{
		NumProcs:  p,
		Seed:      1,
		NoSteal:   t.noSteal,
		NoStub:    t.noStub,
		ChunkSize: t.chunkSize,
	})
	return parent, err
}
