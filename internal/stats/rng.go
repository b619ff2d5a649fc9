// Package stats provides the deterministic random number generator and the
// small numerical toolkit (descriptive statistics, CDFs, time-series
// helpers) used by the simulator and the experiment harness.
//
// Everything random in the repository flows from stats.RNG seeded
// explicitly, so every experiment is reproducible bit-for-bit.
//
// Concurrency: an RNG is a mutable stream and is not safe for concurrent
// use. Parallel sweeps never share a stream across runs; each run derives
// its own seed with DeriveSeed(base, key) (or Split) and owns the
// resulting RNG exclusively.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on
// SplitMix64. It is small, fast, and has no global state; each component
// of the simulator owns its own stream, derived from the experiment seed.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// DeriveSeed maps a base seed and a run key to an independent seed:
// the key is absorbed with an FNV-1a pass and the result is finalized
// with a SplitMix64 round, so nearby keys ("fig15/PAD/Dense/CPU" vs
// "fig15/PAD/Dense/Mem") yield unrelated streams. Sweeps that execute
// runs concurrently derive each run's seed this way instead of sharing
// one RNG, which keeps every run reproducible in isolation regardless
// of scheduling order.
func DeriveSeed(base uint64, key string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime
	}
	z := base + 0x9e3779b97f4a7c15*h
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child stream from the current state and a
// stream label. Identical (seed, label) pairs always yield identical
// streams regardless of draw order elsewhere.
func (r *RNG) Split(label uint64) *RNG {
	// Mix the label through one SplitMix64 round so nearby labels give
	// unrelated streams.
	z := r.state + 0x9e3779b97f4a7c15*(label+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// Uint64 returns the next 64-bit value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed value where the underlying
// normal has parameters mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation above 30. A
// mean that is not positive, NaN included, gives 0 without a draw.
func (r *RNG) Poisson(mean float64) int {
	if !(mean > 0) {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(r.Norm(mean, math.Sqrt(mean))))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
