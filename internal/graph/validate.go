package graph

// Typed input validation. Validate historically returned ad-hoc
// fmt.Errorf values; the hardened runtime needs machine-checkable
// rejection reasons (the CLI maps them to exit codes, the fuzz target
// asserts the checker never panics and always classifies), so every
// violation is now a *ValidationError carrying a code and the offending
// location. The old Validate() signature and semantics — strict policy,
// first violation wins — are unchanged.

import (
	"errors"
	"fmt"
)

// ValidationCode classifies why a graph failed validation.
type ValidationCode int

const (
	// BadShape: the CSR arrays themselves are malformed (wrong Offs
	// length or bounds, non-monotone offsets, odd Adj length).
	BadShape ValidationCode = iota + 1
	// OutOfRange: a neighbor entry is outside [0, n).
	OutOfRange
	// SelfLoop: a vertex lists itself as a neighbor (rejected unless
	// ValidateOpts.AllowSelfLoops).
	SelfLoop
	// MultiEdge: a neighbor appears twice in one adjacency list
	// (rejected unless ValidateOpts.AllowMultiEdges).
	MultiEdge
	// Unsorted: an adjacency list is not in ascending order.
	Unsorted
	// Asymmetric: arc v->w exists but w->v does not.
	Asymmetric
)

// String returns the schema name of the code.
func (c ValidationCode) String() string {
	switch c {
	case BadShape:
		return "bad-shape"
	case OutOfRange:
		return "out-of-range"
	case SelfLoop:
		return "self-loop"
	case MultiEdge:
		return "multi-edge"
	case Unsorted:
		return "unsorted"
	case Asymmetric:
		return "asymmetric"
	}
	return fmt.Sprintf("validation-code(%d)", int(c))
}

// ValidationError is the typed rejection every validation path returns:
// a code, the first offending location, and a human-readable detail.
type ValidationError struct {
	Code ValidationCode
	// Vertex and Neighbor locate the first violation; None when the
	// violation is not tied to a particular vertex (shape errors).
	Vertex   VID
	Neighbor VID
	Detail   string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return "graph: invalid input (" + e.Code.String() + "): " + e.Detail
}

// AsValidationError returns the *ValidationError in err's chain, if any.
func AsValidationError(err error) (*ValidationError, bool) {
	var ve *ValidationError
	if errors.As(err, &ve) {
		return ve, true
	}
	return nil, false
}

// ValidateOpts is the acceptance policy of ValidateWith. The zero value
// is the strict policy of Validate: self-loops and multi-edges are
// structural errors.
type ValidateOpts struct {
	// AllowSelfLoops accepts v in adj(v). The traversal algorithms skip
	// claimed vertices, so a self-loop is semantically harmless; strict
	// inputs still reject it as a likely construction bug.
	AllowSelfLoops bool
	// AllowMultiEdges accepts repeated neighbors. Parallel edges cannot
	// enter a forest twice (the second claim fails), so they too are a
	// policy choice, not a correctness requirement.
	AllowMultiEdges bool
}

// Validate checks structural invariants of the CSR representation under
// the strict policy: monotone offsets, in-range targets, no self-loops,
// sorted and duplicate-free neighbor lists, and symmetry (u in adj(v)
// iff v in adj(u)). The first violation is returned as a
// *ValidationError.
func (g *Graph) Validate() error {
	return g.ValidateWith(ValidateOpts{})
}

// ValidateWith is Validate under an explicit self-loop/multi-edge
// policy.
func (g *Graph) ValidateWith(opt ValidateOpts) error {
	n := g.NumVertices()
	if len(g.Offs) == 0 {
		return &ValidationError{Code: BadShape, Vertex: None, Neighbor: None,
			Detail: "Offs must have length n+1 >= 1, got 0"}
	}
	if g.Offs[0] != 0 {
		return &ValidationError{Code: BadShape, Vertex: None, Neighbor: None,
			Detail: fmt.Sprintf("Offs[0] = %d, want 0", g.Offs[0])}
	}
	if g.Offs[n] != int64(len(g.Adj)) {
		return &ValidationError{Code: BadShape, Vertex: None, Neighbor: None,
			Detail: fmt.Sprintf("Offs[n] = %d, want len(Adj) = %d", g.Offs[n], len(g.Adj))}
	}
	if len(g.Adj)%2 != 0 && !opt.AllowSelfLoops {
		return &ValidationError{Code: BadShape, Vertex: None, Neighbor: None,
			Detail: fmt.Sprintf("len(Adj) = %d is odd; undirected graphs store both directions", len(g.Adj))}
	}
	// The whole shape pass must complete before any Neighbors call: with
	// Offs[0] == 0, Offs[n] == len(Adj) and monotonicity established for
	// EVERY vertex, each Offs[v]:Offs[v+1] slice is in bounds. Checking
	// pairwise inside the scan loop would slice Adj with a wild offset
	// before reaching the violation (the fuzz target's favorite panic).
	for v := 0; v < n; v++ {
		if g.Offs[v] > g.Offs[v+1] {
			return &ValidationError{Code: BadShape, Vertex: VID(v), Neighbor: None,
				Detail: fmt.Sprintf("Offs not monotone at vertex %d: %d > %d", v, g.Offs[v], g.Offs[v+1])}
		}
	}
	for v := 0; v < n; v++ {
		nb := g.Neighbors(VID(v))
		for i, w := range nb {
			if w < 0 || int(w) >= n {
				return &ValidationError{Code: OutOfRange, Vertex: VID(v), Neighbor: w,
					Detail: fmt.Sprintf("neighbor %d of vertex %d out of range [0,%d)", w, v, n)}
			}
			if w == VID(v) && !opt.AllowSelfLoops {
				return &ValidationError{Code: SelfLoop, Vertex: VID(v), Neighbor: w,
					Detail: fmt.Sprintf("self-loop at vertex %d", v)}
			}
			if i > 0 {
				switch {
				case nb[i-1] == w && !opt.AllowMultiEdges:
					return &ValidationError{Code: MultiEdge, Vertex: VID(v), Neighbor: w,
						Detail: fmt.Sprintf("duplicate neighbor %d of vertex %d", w, v)}
				case nb[i-1] > w:
					return &ValidationError{Code: Unsorted, Vertex: VID(v), Neighbor: w,
						Detail: fmt.Sprintf("unsorted neighbors of vertex %d: %d before %d", v, nb[i-1], w)}
				}
			}
		}
	}
	// Symmetry: count directed arcs both ways using a degree-indexed scan.
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(VID(v)) {
			if !g.HasEdge(w, VID(v)) {
				return &ValidationError{Code: Asymmetric, Vertex: VID(v), Neighbor: w,
					Detail: fmt.Sprintf("asymmetric edge %d->%d has no reverse", v, w)}
			}
		}
	}
	return nil
}
