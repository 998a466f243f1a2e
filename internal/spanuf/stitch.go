package spanuf

// Cross-shard stitch: the CAS-hook sweep of this package, specialized to
// the contracted shard-component graph a sharded traversal leaves
// behind. After per-shard teams have grown their forests, every shard
// component is a tree and the only edges that can still join components
// are the partition's boundary edges. Contracting each component to its
// tree root turns the boundary list into a (multi)graph over component
// roots; one hook sweep over it elects, per pair of components, exactly
// one boundary edge to attach through — the same smaller-root election
// the parallel sweep performs, run by the coordinator after the team
// join.
//
// The coordinator runs the sweep sequentially (it is O(boundary) with
// near-constant-time finds, a vanishing fraction of the traversal), but
// it is charged to the model as the hook sweep it is: a pointer chase
// per union-find step, one CAS per hook election, a contiguous stream
// over the boundary list, plus the O(n) label rearm.

import (
	"spantree/internal/graph"
	"spantree/internal/smpmodel"
)

// StitchScratch is the pooled state of the cross-shard stitch pass: a
// union-find array over vertex ids that doubles as the lazy
// component-label cache. It is sized once for a graph and reused across
// runs without allocating (Stitch rearms it on entry).
type StitchScratch struct {
	uf []int32
}

// ufUnlabeled marks a vertex whose component label has not been walked
// yet. It must be distinct from every vertex id: a union-find
// representative legitimately satisfies uf[r] == r, and attach()
// mutates parent[], so a later label walk can pass straight through a
// live representative — an identity-encoded "unlabeled" state would
// let that walk re-memoize the representative onto a label whose chain
// leads back to it, closing a cycle that find() then chases forever.
const ufUnlabeled = int32(-1)

// NewStitchScratch returns stitch scratch for an n-vertex graph.
func NewStitchScratch(n int) *StitchScratch {
	return &StitchScratch{uf: make([]int32, n)}
}

// Stitch joins the per-shard forests recorded in parent through the
// boundary edges. parent must hold completed shard forests with
// graph.None at their roots. For every boundary edge whose
// endpoints lie in different components, Stitch elects the edge via a
// union-find hook and immediately invokes attach(u, v), which must
// splice u's tree under v (the fallback's reroot-and-point idiom);
// same-component edges are skipped. Returns the number of hooks won,
// i.e. attachments made. Stitch never allocates, and probe may be nil
// for unmodeled runs.
func (s *StitchScratch) Stitch(parent []graph.VID, boundary []graph.Edge, probe *smpmodel.Probe, attach func(u, v graph.VID)) int {
	// Rearm the label cache: every vertex starts unlabeled. Labels are
	// materialized on first walk (uf[root] = root), so representatives
	// are always distinguishable from unwalked vertices.
	for i := range s.uf {
		s.uf[i] = ufUnlabeled
	}
	probe.Contig(int64(len(s.uf)))

	hooks := 0
	for _, e := range boundary {
		// Stream the boundary list itself.
		probe.Contig(1)
		ru := s.find(s.label(parent, e.U, probe), probe)
		rv := s.find(s.label(parent, e.V, probe), probe)
		if ru == rv {
			continue
		}
		// Hook election between two live component roots: the parallel
		// sweep pays a CAS here; the winner links the larger root under
		// the smaller, and the edge is applied on the spot. Applying
		// immediately keeps parent[] and the union-find merging in
		// lockstep, so later label walks that cross an attachment still
		// resolve to the merged component.
		probe.CAS(1)
		if ru > rv {
			ru, rv = rv, ru
		}
		s.uf[rv] = ru
		attach(e.U, e.V)
		hooks++
	}
	return hooks
}

// StitchRooted is the stitch fast path for the case the shard teams
// report directly: no team ever reseeded a component, so every shard
// forest is a single tree and a vertex's component label is simply its
// shard index. No parent walks, no O(n) label rearm — the union-find
// runs over the S shard slots (reusing the scratch array's prefix), and
// the modeled charges shrink to the boundary stream plus one CAS per
// hook. The slot lookups and find steps are charged at the contiguous
// rate, not the pointer-chase rate: the cut table and the S-entry
// union-find both fit in a cache line or two and stay resident for the
// whole sweep, whereas Chase prices the DRAM-latency dependent loads of
// a walk through parent[]. Election order, and therefore the output
// forest, is identical to Stitch: both pick the first boundary edge
// joining two live components, in boundary order.
func (s *StitchScratch) StitchRooted(shards int, shardOf func(graph.VID) int32, boundary []graph.Edge, probe *smpmodel.Probe, attach func(u, v graph.VID)) int {
	uf := s.uf[:shards]
	for i := range uf {
		uf[i] = int32(i)
	}
	probe.Contig(int64(shards))
	find := func(x int32) int32 {
		r := x
		steps := int64(0)
		for uf[r] != r {
			r = uf[r]
			steps++
		}
		for uf[x] != r {
			uf[x], x = r, uf[x]
			steps += 2
		}
		probe.Contig(steps)
		return r
	}

	hooks := 0
	for _, e := range boundary {
		// Stream the boundary list, resolve both endpoints' shard slots.
		probe.Contig(3)
		ru := find(shardOf(e.U))
		rv := find(shardOf(e.V))
		if ru == rv {
			continue
		}
		probe.CAS(1)
		if ru > rv {
			ru, rv = rv, ru
		}
		uf[rv] = ru
		attach(e.U, e.V)
		hooks++
	}
	return hooks
}

// label resolves vertex v to its component label: the root of v's tree
// at the time the path from v was first walked. Labels are memoized
// along the walked path, so the total labeling cost is amortized linear
// in the vertices touched; a memoized label may be stale after later
// unions, which find() resolves.
func (s *StitchScratch) label(parent []graph.VID, v graph.VID, probe *smpmodel.Probe) int32 {
	r := v
	chases := int64(0)
	for s.uf[r] == ufUnlabeled {
		p := parent[r]
		if p == graph.None {
			break
		}
		r = p
		chases++
	}
	lab := s.uf[r]
	if lab == ufUnlabeled {
		// First walk to reach this tree root: materialize it as its own
		// union-find representative, which becomes the component label.
		lab = int32(r)
		s.uf[r] = lab
	}
	writes := int64(0)
	for cur := v; cur != r; cur = parent[cur] {
		if s.uf[cur] == ufUnlabeled {
			s.uf[cur] = lab
			writes++
		}
	}
	probe.Chase(chases + writes)
	return lab
}

// find chases a label to its current union-find representative with full
// path compression, charged like the sweep's find: one pointer chase per
// step and two per compression write.
func (s *StitchScratch) find(x int32, probe *smpmodel.Probe) int32 {
	r := x
	chases := int64(0)
	for s.uf[r] != r {
		r = s.uf[r]
		chases++
	}
	writes := int64(0)
	for s.uf[x] != r {
		s.uf[x], x = r, s.uf[x]
		writes++
	}
	probe.Chase(chases + 2*writes)
	return r
}
