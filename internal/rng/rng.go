// Package rng provides a deterministic, splittable pseudo-random number
// generator used by every stochastic component of the FADEWICH simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// table and figure must be regenerable bit-for-bit from a seed. The package
// therefore avoids math/rand's global state entirely. The core generator is
// xoshiro256** seeded through SplitMix64, following the recommendations of
// Blackman & Vigna. Each component of the system derives its own child
// generator via Split, so adding a new consumer of randomness never perturbs
// the streams seen by existing ones.
package rng

import "math"

// Source is a deterministic xoshiro256** generator. The zero value is not
// usable; construct one with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
	// spare holds a cached second Gaussian variate from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// New returns a Source seeded from the given seed using SplitMix64 so that
// even adjacent seeds produce uncorrelated streams.
func New(seed uint64) *Source {
	var s Source
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	// xoshiro's state must not be all-zero; SplitMix64 cannot produce four
	// zero outputs in a row, but guard anyway for clarity.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
	return &s
}

// Split derives an independent child generator. The child's stream is
// deterministic given the parent's current state, and advancing the child
// never affects the parent beyond the single Uint64 consumed here.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xa3ec647659359acd)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform variate in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand so misuse fails loudly during development.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := s.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// NormFloat64 returns a standard Gaussian variate via the Box-Muller
// transform (polar rejection form for numerical robustness).
func (s *Source) NormFloat64() float64 {
	if s.spareOK {
		s.spareOK = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.spare = v * f
		s.spareOK = true
		return u * f
	}
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exponential returns an exponential variate with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return mean * s.ExpFloat64()
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// method for small means and normal approximation above 30 (adequate for
// the event-scheduling use in this codebase).
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher-Yates shuffle over n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Jitter returns a uniform variate in [-width/2, +width/2], convenient for
// de-synchronising scheduled events.
func (s *Source) Jitter(width float64) float64 {
	return (s.Float64() - 0.5) * width
}
