// Package smpmodel implements the Helman–JáJá SMP complexity model the
// paper uses for its analysis (Section 3): an algorithm's cost is the
// triplet
//
//	T(n,p) = ( T_M(n,p) ; T_C(n,p) ; B(n,p) )
//
// where T_M is the maximum number of non-contiguous main-memory accesses
// by any processor, T_C the maximum local computation, and B the number
// of barrier synchronizations. Every algorithm in this library is
// instrumented with per-processor probes that count non-contiguous
// accesses, contiguous (streaming) accesses, and local operations; a
// Machine profile converts the triplet into modeled time.
//
// The modeled time is how this reproduction regenerates the paper's
// figures on hosts with few cores: the reproduction machine has a single
// physical CPU, so real wall-clock speedup is unobservable, but the
// model — the same one the paper reasons with — preserves who wins, by
// what factor, and where the crossovers fall. Wall-clock benchmarks are
// additionally provided in bench_test.go for multi-core hosts.
package smpmodel

import (
	"fmt"
	"time"
)

// Counters accumulates one virtual processor's work. The struct is
// padded to a cache line so adjacent processors' counters do not
// false-share.
type Counters struct {
	// NonContig counts cache-unfriendly accesses: pointer chases, random
	// indexing into vertex-sized arrays, queue-head misses.
	NonContig int64
	// Contig counts streaming accesses: sequential scans of adjacency
	// lists or edge arrays after the first touch.
	Contig int64
	// Ops counts local computation (comparisons, arithmetic) not already
	// implied by an access.
	Ops int64
	// NonContigCompact counts non-contiguous loads of 4-byte CSR
	// offsets (graph.CSR32) where graph.Graph's are 8 bytes: twice the
	// offsets per cache line and TLB page, so a Machine may price them
	// below the wide rate.
	NonContigCompact int64
	// ContigCompact is always zero: the adjacency stream is 4 bytes wide
	// in both CSR forms, so it is charged as Contig. The field stays
	// because the benchmark's T_C fold still reads it.
	ContigCompact int64
	// BottomUpScans is always zero: no algorithm charges it since the
	// bottom-up traversal phase was removed. The field stays because
	// the benchmark's T_C fold still reads it.
	BottomUpScans int64
	// CASOps counts atomic compare-and-swap attempts (the union-find
	// hook elections). A CAS is a non-contiguous access plus the
	// read-modify-write and coherence cost of the locked cycle, so a
	// Machine prices it above the plain non-contiguous rate.
	CASOps int64
	// PointerChases counts serially dependent random accesses — the
	// union-find parent walks, where each load's address comes from the
	// previous load. They miss like non-contiguous accesses but cannot
	// overlap, which is the memory-traffic contrast between the
	// edge-centric family and the traversal's independent queue misses.
	PointerChases int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.NonContig += other.NonContig
	c.Contig += other.Contig
	c.Ops += other.Ops
	c.NonContigCompact += other.NonContigCompact
	c.CASOps += other.CASOps
	c.PointerChases += other.PointerChases
}

// Model collects counters for p virtual processors plus a global barrier
// count. A nil *Model is valid everywhere and makes all probes no-ops,
// so algorithms can run un-instrumented at full speed.
type Model struct {
	counters []Counters
	barriers int64
	// spanNC is the dependency-chain span of the computation in
	// non-contiguous-access units: the longest chain of operations that
	// must execute sequentially regardless of processor count (e.g. a
	// BFS cannot claim a vertex before its parent was processed).
	// Evaluating Time as work-per-processor plus span is Brent's bound;
	// it is what makes high-diameter inputs such as the paper's
	// degenerate chain correctly show no parallel speedup.
	spanNC int64
}

// New returns a Model for p virtual processors. It panics if p < 1.
func New(p int) *Model {
	if p < 1 {
		panic(fmt.Sprintf("smpmodel: New(%d) needs p >= 1", p))
	}
	return &Model{counters: make([]Counters, p)}
}

// NumProcs returns the number of virtual processors, or 0 for nil.
func (m *Model) NumProcs() int {
	if m == nil {
		return 0
	}
	return len(m.counters)
}

// Probe returns the per-processor probe for tid. Probe(tid) on a nil
// model returns a nil probe whose methods are no-ops.
func (m *Model) Probe(tid int) *Probe {
	if m == nil {
		return nil
	}
	return &Probe{c: &m.counters[tid]}
}

// AddBarriers records b barrier synchronizations. Barriers are global
// events, so a single call (not one per processor) records each barrier.
// Safe on a nil model.
func (m *Model) AddBarriers(b int) {
	if m == nil {
		return
	}
	m.barriers += int64(b)
}

// Barriers returns the recorded barrier count.
func (m *Model) Barriers() int64 {
	if m == nil {
		return 0
	}
	return m.barriers
}

// Proc returns a copy of processor tid's counters.
func (m *Model) Proc(tid int) Counters { return m.counters[tid] }

// AddSpanNC accumulates dependency-chain span, in non-contiguous-access
// units. Safe on a nil model.
func (m *Model) AddSpanNC(nc int64) {
	if m == nil {
		return
	}
	m.spanNC += nc
}

// SpanNC returns the recorded dependency-chain span.
func (m *Model) SpanNC() int64 {
	if m == nil {
		return 0
	}
	return m.spanNC
}

// MaxPerProc returns the element-wise maxima over processors — the
// T_M and T_C of the Helman–JáJá triplet (NonContig+Contig split).
func (m *Model) MaxPerProc() Counters {
	var out Counters
	for i := range m.counters {
		c := &m.counters[i]
		if c.NonContig > out.NonContig {
			out.NonContig = c.NonContig
		}
		if c.Contig > out.Contig {
			out.Contig = c.Contig
		}
		if c.Ops > out.Ops {
			out.Ops = c.Ops
		}
		if c.NonContigCompact > out.NonContigCompact {
			out.NonContigCompact = c.NonContigCompact
		}
		if c.CASOps > out.CASOps {
			out.CASOps = c.CASOps
		}
		if c.PointerChases > out.PointerChases {
			out.PointerChases = c.PointerChases
		}
	}
	return out
}

// Total returns the element-wise sum over processors (total work).
func (m *Model) Total() Counters {
	var out Counters
	for i := range m.counters {
		out.Add(m.counters[i])
	}
	return out
}

// Triplet formats the model state as the paper's cost triplet. Compact
// offset loads fold into T_M with the other non-contiguous accesses;
// CAS attempts and pointer chases are main-memory round trips, so they
// fold into T_M too.
func (m *Model) Triplet() string {
	mx := m.MaxPerProc()
	return fmt.Sprintf("⟨T_M=%d; T_C=%d; B=%d⟩",
		mx.NonContig+mx.NonContigCompact+mx.CASOps+mx.PointerChases,
		mx.Ops+mx.Contig, m.barriers)
}

// Probe is the per-processor instrumentation handle. All methods are
// safe on a nil probe (no-ops), so un-instrumented runs pay only a
// branch.
type Probe struct {
	c *Counters
}

// NonContig charges k non-contiguous memory accesses.
func (p *Probe) NonContig(k int64) {
	if p != nil {
		p.c.NonContig += k
	}
}

// Contig charges k contiguous (streaming) memory accesses.
func (p *Probe) Contig(k int64) {
	if p != nil {
		p.c.Contig += k
	}
}

// Ops charges k units of local computation.
func (p *Probe) Ops(k int64) {
	if p != nil {
		p.c.Ops += k
	}
}

// NonContigC charges k non-contiguous loads of 4-byte CSR offsets.
func (p *Probe) NonContigC(k int64) {
	if p != nil {
		p.c.NonContigCompact += k
	}
}

// CAS charges k atomic compare-and-swap attempts (union-find hook
// elections; won or lost, the coherence cost is paid either way).
func (p *Probe) CAS(k int64) {
	if p != nil {
		p.c.CASOps += k
	}
}

// Chase charges k serially dependent random accesses (union-find parent
// walks and compression writes).
func (p *Probe) Chase(k int64) {
	if p != nil {
		p.c.PointerChases += k
	}
}

// Machine converts a cost triplet into modeled time. The defaults are
// calibrated to the paper's platform class (Sun E4500, 400 MHz
// UltraSPARC II, UMA shared memory: worst-case main-memory access in the
// hundreds of nanoseconds, software barriers in the tens of
// microseconds).
type Machine struct {
	Name string
	// NonContigNS is the cost of one non-contiguous access in ns.
	NonContigNS float64
	// ContigNS is the amortized cost of one streaming access in ns.
	ContigNS float64
	// OpNS is the cost of one local operation in ns.
	OpNS float64
	// BarrierNS is the cost of one barrier synchronization in ns.
	BarrierNS float64
	// NonContigCompactNS prices one non-contiguous load of a 4-byte CSR
	// offset. Zero means "same as NonContigNS", so hand-built profiles
	// that predate the compact offsets keep their meaning.
	NonContigCompactNS float64
	// CASNS prices one compare-and-swap attempt and ChaseNS one serially
	// dependent random access (see Counters.CASOps/PointerChases). Zero
	// means "same as NonContigNS", so profiles that predate the
	// union-find family keep their meaning.
	CASNS   float64
	ChaseNS float64
}

// E4500 returns a profile calibrated to the paper's Sun Enterprise 4500.
func E4500() Machine {
	return Machine{
		Name:        "sun-e4500",
		NonContigNS: 300, // main-memory latency, direct-mapped 16KB L1 misses
		ContigNS:    15,  // streaming, amortized over 64B lines
		OpNS:        2.5, // 400 MHz, ~1 op/cycle
		BarrierNS:   20000,
		// Halving the offset width doubles how many offsets fit a 64B
		// line and a TLB page, cutting the miss rate of random offset
		// loads by roughly a third.
		NonContigCompactNS: 200,
		// A CAS is a main-memory round trip plus the locked
		// read-modify-write holding the line exclusive; a chase misses
		// like any random access but cannot overlap its neighbors, which
		// the per-access rate already fails to capture — both priced at a
		// premium over the 300ns random access.
		CASNS:   450,
		ChaseNS: 340,
	}
}

// Modern returns a profile for a current x86 server, used by the
// sensitivity ablation (the shape conclusions survive the profile swap).
func Modern() Machine {
	return Machine{
		Name:               "modern-x86",
		NonContigNS:        80,
		ContigNS:           2,
		OpNS:               0.35,
		BarrierNS:          3000,
		NonContigCompactNS: 55,
		CASNS:              110,
		ChaseNS:            90,
	}
}

// Time evaluates the model under machine mach: the larger of the
// busiest processor's weighted charges and the dependency span (the
// max(W/p, S) form of Brent's bound — the span is already contained in
// the p = 1 work term, so summing would double-count it), plus the
// serialized barrier term.
func (m *Model) Time(mach Machine) time.Duration {
	if m == nil {
		return 0
	}
	// The gating processor is the one with the largest weighted sum, not
	// the max of each component independently: evaluate per processor.
	ncc := mach.NonContigCompactNS
	if ncc == 0 {
		ncc = mach.NonContigNS
	}
	cas, chase := mach.CASNS, mach.ChaseNS
	if cas == 0 {
		cas = mach.NonContigNS
	}
	if chase == 0 {
		chase = mach.NonContigNS
	}
	var worst float64
	for i := range m.counters {
		c := &m.counters[i]
		t := float64(c.NonContig)*mach.NonContigNS +
			float64(c.Contig)*mach.ContigNS +
			float64(c.Ops)*mach.OpNS +
			float64(c.NonContigCompact)*ncc +
			float64(c.CASOps)*cas +
			float64(c.PointerChases)*chase
		if t > worst {
			worst = t
		}
	}
	if span := float64(m.spanNC) * mach.NonContigNS; span > worst {
		worst = span
	}
	worst += float64(m.barriers) * mach.BarrierNS
	return time.Duration(worst) * time.Nanosecond
}
