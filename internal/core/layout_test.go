package core

import (
	"testing"

	"spantree/internal/verify"
)

func TestLayoutParse(t *testing.T) {
	for _, tc := range []struct {
		in  string
		lay Layout
	}{{"wide", LayoutWide}, {"compact", LayoutCompact}} {
		l, err := ParseLayout(tc.in)
		if err != nil || l != tc.lay || l.String() != tc.in {
			t.Fatalf("ParseLayout(%q) = %v, %v", tc.in, l, err)
		}
	}
	if _, err := ParseLayout("sparse"); err == nil {
		t.Fatal("bad layout accepted")
	}
}

// TestLayoutForestsByteIdenticalAtP1 pins that the compact layout is a
// pure re-encoding of the hot path: at p = 1 both drivers are
// deterministic, so the wide and compact layouts must claim in the same
// order and produce byte-identical forests on every Fig. 4 family.
func TestLayoutForestsByteIdenticalAtP1(t *testing.T) {
	for name, run := range drivers() {
		for _, g := range fig4Families() {
			wide, _, err := run(g, Options{NumProcs: 1, Seed: 5, Layout: LayoutWide})
			if err != nil {
				t.Fatalf("%s %v wide: %v", name, g, err)
			}
			compact, _, err := run(g, Options{NumProcs: 1, Seed: 5, Layout: LayoutCompact})
			if err != nil {
				t.Fatalf("%s %v compact: %v", name, g, err)
			}
			if len(wide) != len(compact) {
				t.Fatalf("%s %v: forest lengths differ", name, g)
			}
			for v := range wide {
				if wide[v] != compact[v] {
					t.Fatalf("%s %v: parent[%d] = %d wide vs %d compact",
						name, g, v, wide[v], compact[v])
				}
			}
			if err := verify.Forest(g, wide); err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
		}
	}
}

// TestCompactLayoutOnTinyGraphs: the Options plumbing must surface
// CompactOf errors instead of panicking; representable graphs must run.
func TestCompactLayoutOnTinyGraphs(t *testing.T) {
	for name, run := range drivers() {
		for _, g := range shapes() {
			parent, _, err := run(g, Options{NumProcs: 2, Seed: 3, Layout: LayoutCompact})
			if err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
			if err := verify.Forest(g, parent); err != nil {
				t.Fatalf("%s %v: %v", name, g, err)
			}
		}
	}
}
