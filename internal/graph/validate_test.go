package graph

import (
	"errors"
	"testing"
)

// csr hand-builds a Graph without the builders' sanitation, so tests
// can construct precisely malformed inputs.
func csr(offs []int64, adj []VID) *Graph { return &Graph{Offs: offs, Adj: adj} }

func TestValidateCodes(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want ValidationCode
	}{
		{"empty-offs", csr(nil, nil), BadShape},
		{"offs0-nonzero", csr([]int64{1, 2}, []VID{0, 0}), BadShape},
		{"offs-end-mismatch", csr([]int64{0, 1}, []VID{0, 0}), BadShape},
		{"odd-adj", csr([]int64{0, 1}, []VID{0}), BadShape},
		{"non-monotone", csr([]int64{0, 4, 2}, []VID{1, 1, 0, 0}), BadShape},
		{"neighbor-negative", csr([]int64{0, 1, 2}, []VID{-3, 0}), OutOfRange},
		{"neighbor-too-big", csr([]int64{0, 1, 2}, []VID{5, 0}), OutOfRange},
		{"self-loop", csr([]int64{0, 2, 2}, []VID{0, 0}), SelfLoop},
		{"multi-edge", csr([]int64{0, 2, 4}, []VID{1, 1, 0, 0}), MultiEdge},
		{"unsorted", csr([]int64{0, 2, 3, 4}, []VID{2, 1, 0, 0}), Unsorted},
		{"asymmetric", csr([]int64{0, 1, 2, 4}, []VID{1, 0, 0, 1}), Asymmetric},
	}
	for _, tc := range cases {
		err := tc.g.Validate()
		if err == nil {
			t.Fatalf("%s: Validate accepted a malformed graph", tc.name)
		}
		ve, ok := AsValidationError(err)
		if !ok {
			t.Fatalf("%s: error %v is not a *ValidationError", tc.name, err)
		}
		if ve.Code != tc.want {
			t.Fatalf("%s: code = %v, want %v", tc.name, ve.Code, tc.want)
		}
		if ve.Error() == "" || ve.Code.String() == "" {
			t.Fatalf("%s: empty rendering", tc.name)
		}
	}
}

func TestValidateAcceptsGoodGraphs(t *testing.T) {
	for _, g := range []*Graph{
		csr([]int64{0}, nil),                                 // empty graph
		csr([]int64{0, 0}, nil),                              // one isolated vertex
		csr([]int64{0, 1, 2}, []VID{1, 0}),                   // one edge
		randomGraph(3, 50, 80),                               // builder output
		csr([]int64{0, 0, 1, 2}, []VID{2, 1}),                // isolated vertex plus edge
		csr([]int64{0, 2, 3, 5, 6}, []VID{1, 2, 0, 0, 3, 2}), // small tree
	} {
		if err := g.Validate(); err != nil {
			t.Fatalf("Validate rejected a valid graph %v: %v", g, err)
		}
	}
}

func TestValidatePolicies(t *testing.T) {
	selfLoop := csr([]int64{0, 2, 3}, []VID{0, 1, 0})
	if err := selfLoop.Validate(); err == nil {
		t.Fatal("strict policy accepted a self-loop")
	}
	if err := selfLoop.ValidateWith(ValidateOpts{AllowSelfLoops: true}); err != nil {
		t.Fatalf("AllowSelfLoops rejected a self-loop: %v", err)
	}

	multi := csr([]int64{0, 2, 4}, []VID{1, 1, 0, 0})
	if err := multi.Validate(); err == nil {
		t.Fatal("strict policy accepted a multi-edge")
	}
	if err := multi.ValidateWith(ValidateOpts{AllowMultiEdges: true}); err != nil {
		t.Fatalf("AllowMultiEdges rejected a parallel edge: %v", err)
	}
	// The relaxed policy must not mask unrelated violations.
	bad := csr([]int64{0, 1, 2}, []VID{5, 0})
	if err := bad.ValidateWith(ValidateOpts{AllowSelfLoops: true, AllowMultiEdges: true}); err == nil {
		t.Fatal("relaxed policy accepted an out-of-range neighbor")
	}
}

func TestAsValidationErrorMiss(t *testing.T) {
	if _, ok := AsValidationError(errors.New("plain")); ok {
		t.Fatal("AsValidationError matched a plain error")
	}
	if _, ok := AsValidationError(nil); ok {
		t.Fatal("AsValidationError matched nil")
	}
}
