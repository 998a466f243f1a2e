// Package sched is the shared dynamic-scheduling layer of the
// repository: the drain chunk and the p-scaled steal threshold that
// every parallel loop in the tree uses — the work-stealing traversal in
// internal/core and the work-stealing parallel-for of internal/par
// alike. It exists so there is exactly one definition of chunk size and
// steal policy: a scheduling change lands here and takes effect in
// every algorithm at once.
package sched

// DefaultChunkSize is the drain chunk used when no explicit chunk size
// is set: a worker takes up to this many items per lock acquisition,
// paying ~2 lock operations per chunk instead of per item. The items of
// a drain are hidden from thieves until processed, so a big chunk trades
// frontier visibility for lock amortization. A fixed 256 was as fast as
// per-worker adaptive chunking on the benchmark workloads and at or
// below it in the modeled chunk ablation (EXPERIMENTS.md, "Adaptive
// chunk deleted"); 1 reproduces the unbatched per-item hot path.
const DefaultChunkSize = 256

// MinStealLen returns the smallest victim queue worth stealing from at
// processor count p: max(2, p/2). The floor of 2 leaves a single
// in-flight item to its owner — ripping it would only relocate the
// serial bottleneck while thrashing the queues. The p/2 scaling
// addresses the bursty re-idling seen at high p on small inputs: with
// many thieves, halving a 2-element queue hands each of them at most
// one item, which they exhaust immediately and re-idle, so the steal
// threshold must grow with the number of mouths a steal feeds. This is
// also what makes the paper's starvation scenario real — "queues of the
// busy processors may contain only a few elements (in extreme cases ...
// only one element). In this case work awaits busy processors while
// idle processors starve" — and therefore what the idle-detection
// fallback exists to catch.
func MinStealLen(p int) int {
	if m := p / 2; m > 2 {
		return m
	}
	return 2
}
