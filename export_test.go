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

// findTrimmed is the one-shot reference a p = 1 session is pinned to:
// the work-stealing run with the session's pendant trees pre-claimed.
func findTrimmed(g *Graph, seed uint64) (*Result, error) {
	parent, st, err := core.SpanningForest(g, core.WithPendantTrim(core.Options{NumProcs: 1, Seed: seed}))
	if err != nil {
		return nil, err
	}
	roots := st.Roots
	return &Result{Algorithm: AlgWorkStealing, Parent: parent, Roots: roots,
		TreeEdges: len(parent) - roots, WorkStealing: &st}, nil
}
