// Package rng provides deterministic, seedable pseudo-random number
// generation and the sampling primitives used throughout the Inf2vec
// reproduction: uniform sampling, Fisher-Yates shuffles, weighted sampling
// via alias tables, and the word2vec-style unigram^0.75 negative-sampling
// table.
//
// All generators in this package are deterministic functions of their seed,
// which makes every experiment in the repository reproducible. The core
// generator is xoshiro256**, seeded through splitmix64 as its authors
// recommend; it is small, fast, and of far higher quality than the linear
// congruential generators word2vec itself shipped with.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random generator. The zero value is invalid;
// construct with New. RNG is not safe for concurrent use; give each worker
// goroutine its own generator (see Split).
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a splitmix64 state and returns the next output. It is
// used to spread a single 64-bit seed over xoshiro's 256-bit state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes r in place exactly as New(seed) would, letting
// tight loops that burn through many short-lived streams (one per work
// unit) reuse a single generator instead of allocating one per stream.
func (r *RNG) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** requires a nonzero state; splitmix64 of any seed makes an
	// all-zero state astronomically unlikely, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Split derives a new independent generator from r. It is the supported way
// to hand per-worker generators out of a single experiment seed.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// Keyed derives a generator from a base seed and a stream key. Unlike Split
// it consumes no generator state: Keyed(seed, k) is a pure function of its
// arguments, so independent workers can derive the stream for any key in any
// order — the keyed-derivation counterpart of Split for data-parallel work
// (one stream per episode, per shard, ...). The key is diffused through
// splitmix64 before being folded into the seed, so consecutive keys
// (0, 1, 2, ...) land far apart in seed space.
func Keyed(seed, key uint64) *RNG {
	r := &RNG{}
	r.ReseedKeyed(seed, key)
	return r
}

// ReseedKeyed re-initializes r in place exactly as Keyed(seed, key) would;
// the allocation-free counterpart of Keyed, as Reseed is of New.
func (r *RNG) ReseedKeyed(seed, key uint64) {
	sm := key ^ 0x6a09e667f3bcc908 // offset so key 0 does not pass through unmixed
	r.Reseed(seed ^ splitmix64(&sm))
}

// State returns the generator's full 256-bit internal state, for
// checkpointing. Restoring it with SetState resumes the exact stream.
func (r *RNG) State() [4]uint64 {
	return r.s
}

// SetState replaces the generator's internal state with one previously
// captured by State. The all-zero state is invalid for xoshiro256** (the
// stream would be constant zero); it is replaced by a fixed nonzero state so
// a corrupt checkpoint can degrade but never wedge the generator.
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling, without the rejection
	// refinement: the bias for n << 2^64 is negligible for simulation use.
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Int31n returns a uniform int32 in [0, n). It panics if n <= 0.
func (r *RNG) Int31n(n int32) int32 {
	return int32(r.Intn(int(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p uniformly at random in place (Fisher-Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// ShuffleInt32s permutes p uniformly at random in place.
func (r *RNG) ShuffleInt32s(p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes n elements in place using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Pareto returns a Pareto(xm, alpha) variate: xm * U^(-1/alpha). Used by the
// synthetic data generator to plant heavy-tailed influence abilities.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return xm * math.Pow(u, -1/alpha)
		}
	}
}
