package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail percentile resting on fewer is one
// outlier wide.
const minBeyond = 10

// failed is the latency sample a failed or refused operation
// contributes: it misses every latency limit.
var failed = math.Inf(1)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and
// whether at least minBeyond samples lie beyond it. xs is sorted in
// place. An empty sample is never resolved.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], len(xs)-rank >= minBeyond
}

// median is the nearest-rank median. It needs no samples beyond it.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// slowdown is one operation's latency over that of the sequential BFS
// run right after it, on the same graph. The host is shared, and its
// speed drifts by tens of percent over minutes; both runs of a pair see
// the same drift, so their ratio keeps still where either time does not.
// A failed operation or BFS makes the pair +Inf.
func slowdown(lat, bfs float64) float64 {
	if math.IsInf(lat, 1) || math.IsInf(bfs, 1) || bfs <= 0 {
		return failed
	}
	return lat / bfs
}

// speedups returns two speedups over the sequential BFS from the pairs'
// slowdowns: that of the median operation, and that of the mean
// slowdown, which every slow operation drags down. A tail percentile
// would do that too, but serving latency is bimodal with its second mode
// near the p90, so the p90 jumps between modes from run to run while the
// mean moves only with the share of slow operations. One failed pair
// makes the mean speedup 0. xs is sorted in place.
func speedups(xs []float64) (p50, mean float64) {
	s50, _ := percentile(xs, 0.5)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(1, s50), ratio(float64(len(xs)), sum)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
