package sim

import "math/rand"

// RNG wraps a seeded deterministic random source. Each subsystem of a run
// should derive its own RNG via Fork so that adding draws in one subsystem
// never perturbs another.
type RNG struct {
	seed int64 // the seed this generator was created from (Fork input)
	r    *rand.Rand
}

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent generator whose stream depends only on the
// parent seed and the label — not on how many values the parent has
// drawn, and not on fork order. The parent stream is not consumed.
func (g *RNG) Fork(label string) *RNG {
	// Mix the label into a child seed with an FNV-1a style fold, then fold
	// in the parent's stored seed the same way so distinct parents with
	// the same label produce distinct children.
	var h uint64 = 1469598103934665603
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	h ^= uint64(g.seed)
	h *= 1099511628211
	return NewRNG(int64(h))
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit value.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// ExpFloat64 returns an exponential variate with mean 1.
func (g *RNG) ExpFloat64() float64 { return g.r.ExpFloat64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Uniform returns a uniform value in [lo, hi). Here and in Jitter the
// explicit float64 conversion rounds the product before the sum, so no
// GOARCH fuses it into a multiply-add.
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + float64((hi-lo)*g.r.Float64())
}

// Jitter returns base scaled by a uniform factor in [1-f, 1+f]. It is used
// for per-task execution-time wobble; f is clamped to [0, 1).
func (g *RNG) Jitter(base, f float64) float64 {
	if f < 0 {
		f = 0
	}
	if f >= 1 {
		f = 0.999999
	}
	return base * (1 - f + float64(2*f*g.r.Float64()))
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (g *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}
