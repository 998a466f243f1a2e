// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the spanning-tree library.
//
// The library never uses math/rand global state: every randomized
// component (graph generators, the stub-spanning-tree random walk, victim
// selection in work stealing) takes an explicit seed so that experiments
// are exactly reproducible. Each virtual processor derives an independent
// stream with Split, following the SplitMix64 construction.
package xrand

import "math"

// golden is the 64-bit golden-ratio increment used by SplitMix64.
const golden = 0x9E3779B97F4A7C15

// mix64 is the SplitMix64 output mix function (Steele, Lea, Flood 2014).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SplitMix64 is a tiny splittable PRNG. The zero value is a valid
// generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (s *SplitMix64) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Rand is the library's primary generator: Xoshiro256++ seeded via
// SplitMix64. It is not safe for concurrent use; derive one per
// goroutine with Split.
type Rand struct {
	s0, s1, s2, s3 uint64
}

// New returns a Rand seeded deterministically from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed reinitializes r in place from seed, producing exactly the state
// New(seed) would, without allocating. It is the reuse hook for pooled
// runtimes (a warmed session reseeds its per-worker generators per
// request instead of constructing fresh ones).
func (r *Rand) Reseed(seed uint64) {
	var sm SplitMix64
	sm.state = seed
	r.s0, r.s1, r.s2, r.s3 = sm.Uint64(), sm.Uint64(), sm.Uint64(), sm.Uint64()
	// An all-zero state is the one invalid Xoshiro state; seed==specific
	// values cannot produce it through SplitMix64, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = golden
	}
}

// Split returns a new Rand with a stream independent of r's, derived from
// r's current state and the stream index. Calling Split(i) for distinct i
// yields distinct, decorrelated generators; r itself is not advanced.
func (r *Rand) Split(i uint64) *Rand {
	out := &Rand{}
	out.ReseedSplit(r, i)
	return out
}

// ReseedSplit reinitializes r in place with the independent stream that
// parent.Split(i) would produce, without allocating. parent is not
// advanced.
func (r *Rand) ReseedSplit(parent *Rand, i uint64) {
	r.Reseed(mix64(parent.s0^mix64(i+1)) + mix64(parent.s2+golden*(i+1)))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next pseudo-random 64-bit value (Xoshiro256++).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s0+r.s3, 23) + r.s0
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Uint32 returns a pseudo-random 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("xrand: Int31n called with n <= 0")
	}
	return int32(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire rejection on the high 64 bits of a 64x64->128 product.
	for {
		v := r.Uint64()
		hi, lo := mul128(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// via inverse transform sampling.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a pseudo-random permutation of [0, n) as an []int32,
// via Fisher-Yates.
func (r *Rand) Perm(n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomly permutes the n elements addressed by swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns a pseudo-random boolean with probability 1/2.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Prob returns true with probability p (clamped to [0,1]).
func (r *Rand) Prob(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
