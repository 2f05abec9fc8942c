// Package rng provides the deterministic random-number machinery used by the
// emulator: a splittable SplitMix64 generator, uniform helpers, and the
// truncated Gaussian noise model the paper applies to function run times
// (§4: "the emulations add Gaussian noises to the performance").
//
// Everything in the simulator draws from an rng.Source seeded explicitly, so
// a scenario replays bit-identically given the same seed.
package rng

import (
	"math"
	"time"
)

// Source is a deterministic pseudo-random source based on SplitMix64.
// SplitMix64 passes BigCrush, has a full 2^64 period, and — critically for
// the emulator — supports cheap splitting so each subsystem (workload
// generator, noise model, hashing) gets an independent stream.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

const (
	gamma = 0x9E3779B97F4A7C15
	mix1  = 0xBF58476D1CE4E5B9
	mix2  = 0x94D049BB133111EB
)

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * mix1
	z = (z ^ (z >> 27)) * mix2
	return z ^ (z >> 31)
}

// Split derives an independent child stream. The child is seeded from the
// parent's output, so distinct Split calls give distinct streams and the
// parent advances (two consecutive Splits differ).
func (s *Source) Split() *Source {
	return &Source{state: s.Uint64()}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 random mantissa bits.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// IntN returns a uniform int in [0, n). n must be positive.
func (s *Source) IntN(n int) int {
	if n <= 0 {
		panic("rng: IntN with non-positive n")
	}
	// Lemire's multiply-shift rejection-free variant is overkill here; the
	// simulator's n values are tiny, so modulo bias is negligible, but we
	// still use the widening multiply to avoid it entirely.
	v := s.Uint64()
	hi, _ := mul64(v, uint64(n))
	return int(hi)
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiC := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiC + t>>32
	return hi, lo
}

// UniformIn returns a uniform float64 in [lo, hi).
func (s *Source) UniformIn(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a standard normal variate via the polar Box–Muller method.
func (s *Source) Normal() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// TruncatedGaussianFactor returns a multiplicative noise factor
// 1 + N(0, sigma²) truncated to ±3σ and floored at floor. It is the noise
// model applied to every emulated execution time: multiplicative, centred on
// the profiled time, and never producing a non-positive duration.
func (s *Source) TruncatedGaussianFactor(sigma, floor float64) float64 {
	if sigma <= 0 {
		return 1
	}
	z := s.Normal()
	if z > 3 {
		z = 3
	} else if z < -3 {
		z = -3
	}
	f := 1 + sigma*z
	if f < floor {
		f = floor
	}
	return f
}

// Exp returns an exponential variate with mean 1 via inversion. Together
// with a mean it samples memoryless inter-event gaps — the fault injector's
// MTBF/MTTR crash and recovery schedules. 1-Float64 keeps the argument of
// the log strictly positive (Float64 can return exactly 0).
func (s *Source) Exp() float64 {
	return -math.Log(1 - s.Float64())
}

// ExpDuration returns an exponential duration with the given mean, floored
// at 1ns so schedules always advance and saturated at the largest
// time.Duration instead of wrapping (mean <= 0 returns 0).
func (s *Source) ExpDuration(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	x := s.Exp() * float64(mean)
	if x >= math.MaxInt64 {
		return math.MaxInt64
	}
	d := time.Duration(x)
	if d < 1 {
		d = 1
	}
	return d
}

// Hash64 mixes an arbitrary byte string into a 64-bit value using FNV-1a
// followed by a SplitMix64 finalizer. Used for the "home invoker" hashing
// the OpenWhisk controller applies to (namespace, action) pairs.
func Hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	// Finalize so short strings spread over the full range.
	h = (h ^ (h >> 30)) * mix1
	h = (h ^ (h >> 27)) * mix2
	return h ^ (h >> 31)
}
