package gen

import (
	"fmt"
	"math/bits"
	"slices"

	"spantree/internal/graph"
	"spantree/internal/xrand"
)

// Random returns a G(n, m) random graph: m unique undirected edges added
// uniformly at random to n vertices, the construction the paper adopts
// from LEDA ("we create a random graph of n vertices and m edges by
// randomly adding m unique edges to the vertex set"). Self-loops are
// never produced. If m exceeds the number of possible edges it is
// clamped. The edges are the first m distinct non-loop pairs of the
// seed's stream (edgeKeys.draw).
func Random(n, m int, seed uint64) *graph.Graph {
	if n < 0 || m < 0 {
		panic(fmt.Sprintf("gen: Random(%d,%d) with negative parameter", n, m))
	}
	m = min(m, maxEdges(n))
	ks := newEdgeKeys(n, m)
	ks.draw(rng(seed, 'R'), m)
	g := ks.build()
	g.Name = fmt.Sprintf("random-n%d-m%d", n, m)
	return g
}

// RandomConnected returns a connected random graph: a uniformly random
// spanning tree backbone (random attachment order) plus extra random
// edges to reach m total. Used by tests and examples that need a single
// component; m < n-1 is raised to n-1.
func RandomConnected(n, m int, seed uint64) *graph.Graph {
	if n < 0 || m < 0 {
		panic(fmt.Sprintf("gen: RandomConnected(%d,%d) with negative parameter", n, m))
	}
	if n <= 1 {
		g := graph.NewBuilder(n).Build()
		g.Name = fmt.Sprintf("randconn-n%d-m0", n)
		return g
	}
	m = min(max(m, n-1), maxEdges(n))
	r := rng(seed, 'C')
	ks := newEdgeKeys(n, m)
	// Random-attachment spanning tree over a random vertex order. Each
	// tree edge joins order[i] to an earlier vertex, so the n-1 edges are
	// distinct and none is a loop.
	order := r.Perm(n)
	for i := 1; i < n; i++ {
		ks.add(order[i], order[r.Intn(i)])
	}
	ks.draw(r, m)
	g := ks.build()
	g.Name = fmt.Sprintf("randconn-n%d-m%d", n, m)
	return g
}

// maxEdges returns the number of undirected edges of the complete graph
// on n vertices.
func maxEdges(n int) int {
	return int(int64(n) * int64(n-1) / 2)
}

// edgeKeys collects undirected edges as packed canonical keys: {u, v}
// with u < v is u<<shift | v, where shift is the bit length of n-1, so
// the keys of a vertex's larger neighbours are contiguous and ascending
// key order is ascending (u, v) order.
type edgeKeys struct {
	n     int
	shift uint
	keys  []uint64
}

func newEdgeKeys(n, m int) *edgeKeys {
	return &edgeKeys{n: n, shift: uint(bits.Len(uint(max(n-1, 0)))), keys: make([]uint64, 0, m)}
}

func (ks *edgeKeys) key(u, v graph.VID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<ks.shift | uint64(v)
}

// add appends the edge {u, v}, u != v.
func (ks *edgeKeys) add(u, v graph.VID) {
	ks.keys = append(ks.keys, ks.key(u, v))
}

// draw extends the distinct keys collected so far to the first m
// distinct non-loop pairs of r's stream, leaving them sorted. It appends
// enough pairs to reach m in stream order, radix-sorts the keys and
// drops repeats; a prefix of the stream holds exactly those distinct
// pairs, so only as many edges as there were repeats are missing. The
// top-up continues the stream one pair at a time, accepting each pair
// it has not seen (topUp), and merges its accepts into the sorted keys.
func (ks *edgeKeys) draw(r *xrand.Rand, m int) {
	n := int32(ks.n)
	for len(ks.keys) < m {
		if u, v := r.Int31n(n), r.Int31n(n); u != v {
			ks.add(u, v)
		}
	}
	width := 2 * ks.shift
	sorted := sortUnique(ks.keys, width)
	if len(sorted) == m {
		ks.keys = sorted
		return
	}
	t := newTopUp(sorted, width, m)
	for len(t.extra) < m-len(sorted) {
		if u, v := r.Int31n(n), r.Int31n(n); u != v {
			t.offer(ks.key(u, v))
		}
	}
	extra := sortUnique(t.extra, width)
	// Merge from the back into sorted's spare capacity: the keys slice
	// was made with capacity m, and sortUnique returns it or its
	// same-capacity buffer.
	out := sorted[:m]
	i, j := len(sorted)-1, len(extra)-1
	for w := m - 1; j >= 0; w-- {
		if i >= 0 && sorted[i] > extra[j] {
			out[w] = sorted[i]
			i--
		} else {
			out[w] = extra[j]
			j--
		}
	}
	ks.keys = out
}

// topUp is the membership test of the top-up draws: a key is new if it
// is neither among the sorted distinct keys nor among the top-up's own
// accepts, extra. At m = 1.5n the top-up is a couple of draws, so a
// binary search in the sorted keys and a map of the accepts cost
// nothing. The top-up grows with the graph's density, to about a third
// of m in a complete graph, whose draws coupon collecting multiplies
// many times over; there, when one bit per possible key is no more
// memory than the keys themselves, the test is a bitmap of the key
// space that holds the sorted keys and every accept.
type topUp struct {
	sorted   []uint64
	extra    []uint64
	accepted map[uint64]struct{} // the accepts, without a bitmap
	bitmap   []uint64            // the sorted keys and the accepts, when dense
}

func newTopUp(sorted []uint64, width uint, m int) *topUp {
	t := &topUp{sorted: sorted, extra: make([]uint64, 0, m-len(sorted))}
	if width < 6+uint(bits.Len(uint(m))) { // 2^width bits <= 64m bits
		t.bitmap = make([]uint64, (1<<width+63)/64)
		for _, k := range sorted {
			t.bitmap[k/64] |= 1 << (k % 64)
		}
	} else {
		t.accepted = make(map[uint64]struct{}, cap(t.extra))
	}
	return t
}

// offer accepts k if the top-up has not seen it.
func (t *topUp) offer(k uint64) {
	if t.bitmap != nil {
		if t.bitmap[k/64]&(1<<(k%64)) != 0 {
			return
		}
		t.bitmap[k/64] |= 1 << (k % 64)
	} else {
		if _, in := slices.BinarySearch(t.sorted, k); in {
			return
		}
		if _, in := t.accepted[k]; in {
			return
		}
		t.accepted[k] = struct{}{}
	}
	t.extra = append(t.extra, k)
}

// build returns the graph of the collected keys, which are sorted, so
// the builder receives its edges in increasing U.
func (ks *edgeKeys) build() *graph.Graph {
	b := graph.NewBuilder(ks.n)
	b.Reserve(len(ks.keys))
	mask := uint64(1)<<ks.shift - 1
	for _, k := range ks.keys {
		b.AddEdge(graph.VID(k>>ks.shift), graph.VID(k&mask))
	}
	return b.Build()
}

// radixBits is the widest digit sortUnique sorts by. Fewer passes beat
// a smaller scatter fan-out: 1.5·2^20 keys of 40 bits sorted in 40–43 ms
// in three passes of 14 bits, 52–56 ms in four of 10 and 65 ms in five
// of 8 (2-vCPU x86 host, medians of 15), and a digit's 2^14 counters fit
// in the L2 cache.
const radixBits = 14

// sortUnique sorts keys below 2^width ascending by least-significant
// digit radix sort and drops repeats. It returns keys or a buffer of the
// same length and capacity, whichever holds the result.
func sortUnique(keys []uint64, width uint) []uint64 {
	passes := (int(width) + radixBits - 1) / radixBits
	if passes > 0 && len(keys) > 1 {
		digit := (width + uint(passes) - 1) / uint(passes)
		mask := uint64(1)<<digit - 1
		// One read of the keys counts every digit's histogram.
		counts := make([]int, passes<<digit)
		for _, k := range keys {
			for p := 0; p < passes; p++ {
				counts[p<<digit|int(k>>(uint(p)*digit)&mask)]++
			}
		}
		buf := make([]uint64, len(keys), cap(keys))
		for p := 0; p < passes; p++ {
			count := counts[p<<digit : (p+1)<<digit]
			sum := 0
			for d, c := range count {
				count[d] = sum
				sum += c
			}
			s := uint(p) * digit
			for _, k := range keys {
				d := k >> s & mask
				buf[count[d]] = k
				count[d]++
			}
			keys, buf = buf, keys
		}
	}
	return slices.Compact(keys)
}
