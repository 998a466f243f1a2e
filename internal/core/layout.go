package core

// The compact-layout half of the memory-traffic work: the traversal can
// read its CSR through graph.CSR32 — uint32 offsets and adjacency in
// one arena-backed allocation — instead of the wide int64-offset
// graph.Graph. Hot loops get duplicated compact variants (one branch
// per vertex on the layout, no per-edge interface dispatch); cold paths
// (stub walk, fallback, quiescence, verification) always stay on the
// wide graph, which is kept alongside the compact mirror.

import (
	"fmt"
	"sync/atomic"

	"spantree/internal/graph"
	"spantree/internal/obs"
	"spantree/internal/smpmodel"
)

// Layout selects the CSR layout the traversal hot path reads.
type Layout int

const (
	// LayoutWide is the default: the int64-offset graph.Graph.
	LayoutWide Layout = iota
	// LayoutCompact reads a uint32 arena (graph.CSR32) built once per
	// run — or once per Workspace, so pooled sessions stay
	// allocation-free. Requires n and the adjacency length to fit uint32.
	LayoutCompact
)

// String returns the CLI name of the layout.
func (l Layout) String() string {
	if l == LayoutCompact {
		return "compact"
	}
	return "wide"
}

// ParseLayout converts a CLI name into a Layout.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "wide":
		return LayoutWide, nil
	case "compact":
		return LayoutCompact, nil
	}
	return 0, fmt.Errorf("core: unknown layout %q (want wide or compact)", s)
}

// processCompact is the compact-layout twin of process's neighbor loop:
// identical claims in identical order (the compact arena preserves
// adjacency order, so p = 1 forests are byte-identical across layouts),
// with the offset load and adjacency stream charged to the compact
// access classes.
func (t *traversal) processCompact(v graph.VID, probe *smpmodel.Probe,
	out *[]int32, lc *obs.Local, pend *int64) {
	// The compact view's offsets are indexed by local id (v - lo, a no-op
	// for whole-graph traversals); its adjacency ids are global.
	nb := t.cg.Neighbors32(v - t.lo)
	probe.NonContigC(1) // load adjacency offset (uint32 arena)
	probe.ContigC(int64(len(nb)))
	lc.Add(obs.EdgesScanned, int64(len(nb)))
	var childSpan int64
	if t.span != nil {
		childSpan = t.span[v] + procCostNC(len(nb))
	}
	for _, w := range nb {
		probe.NonContig(1) // fused claim-state load of parent[w]
		if atomic.LoadInt32(&t.parent[w]) != graph.None {
			continue
		}
		if t.claim(graph.VID(w), v) {
			probe.NonContig(1) // winning claim CAS
			if t.span != nil {
				t.span[w] = childSpan
			}
			*out = append(*out, int32(w))
			*pend++
		} else {
			lc.Incr(obs.FailedClaims)
		}
	}
}
