// Package sim provides deterministic random number generation, probability
// distributions, and summary statistics shared by the simulator packages.
//
// All randomness in the repository flows through sim.RNG so that every
// experiment is reproducible from a single seed.
package sim

import "math"

// RNG is a deterministic pseudo-random generator based on xoshiro256**,
// seeded through splitmix64. The zero value is not valid; use NewRNG.
type RNG struct {
	s [4]uint64
	// cached second normal variate from the Box-Muller transform
	haveGauss bool
	gauss     float64
}

// NewRNG returns a generator seeded from seed. Two generators constructed
// with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 expansion of the seed into four state words.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent generator from the current one. The derived
// stream is stable: it depends only on the parent's state at the call site.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
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

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniformly distributed integer in [0, n). It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// TruncNormal returns a normal variate truncated to [mean-k*stddev,
// mean+k*stddev] by resampling. It models bounded process variation.
func (r *RNG) TruncNormal(mean, stddev, k float64) float64 {
	if stddev == 0 {
		return mean
	}
	for {
		x := r.NormFloat64()
		if math.Abs(x) <= k {
			return mean + stddev*x
		}
	}
}

// Exponential returns an exponential variate with the given rate (lambda).
func (r *RNG) Exponential(rate float64) float64 {
	if rate <= 0 {
		panic("sim: Exponential with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success. p must be in (0, 1].
func (r *RNG) Geometric(p float64) int { return NewGeometricSampler(p).Draw(r) }

// GeometricSampler is Geometric(p) with log(1-p) computed once, for
// callers that draw many variates at one p: RNG.Geometric(p) is
// NewGeometricSampler(p).Draw(r).
type GeometricSampler struct {
	logQ float64 // math.Log(1-p)
	// certain marks p == 1: every draw is 0 and consumes no randomness.
	certain bool
}

// NewGeometricSampler precomputes Geometric(p). p must be in (0, 1].
func NewGeometricSampler(p float64) GeometricSampler {
	if p <= 0 || p > 1 {
		panic("sim: Geometric with p outside (0,1]")
	}
	return GeometricSampler{logQ: math.Log(1 - p), certain: p == 1}
}

// Draw returns the next variate from r.
func (g GeometricSampler) Draw(r *RNG) int {
	if g.certain {
		return 0
	}
	return int(math.Floor(math.Log(1-r.Float64()) / g.logQ))
}

// Zipf returns a value in [0, n) following an approximately Zipfian
// distribution with exponent s > 0: value 0 is the most probable. It uses
// inverse-CDF sampling of the continuous density x^-s on [1, n+1], which is
// accurate enough for workload trace generation.
func (r *RNG) Zipf(n int, s float64) int { return NewZipfSampler(n, s).Draw(r) }

// ZipfSampler is Zipf(n, s) with the inverse CDF's constants computed
// once, for callers that draw many variates at one (n, s): RNG.Zipf(n, s)
// is NewZipfSampler(n, s).Draw(r).
type ZipfSampler struct {
	n int
	// logHi is math.Log(n+1), used when s == 1.
	logHi float64
	// scale is math.Pow(n+1, 1-s)-1 and inv is 1/(1-s), used otherwise.
	scale, inv float64
	one        bool // s == 1
}

// NewZipfSampler precomputes Zipf(n, s). n must be positive.
func NewZipfSampler(n int, s float64) ZipfSampler {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	hi := float64(n + 1)
	if s == 1 {
		return ZipfSampler{n: n, logHi: math.Log(hi), one: true}
	}
	return ZipfSampler{n: n, scale: math.Pow(hi, 1-s) - 1, inv: 1 / (1 - s)}
}

// Draw returns the next variate from r. A sampler over one value returns
// 0 without consuming randomness.
func (z ZipfSampler) Draw(r *RNG) int {
	if z.n == 1 {
		return 0
	}
	u := r.Float64()
	var x float64
	if z.one {
		x = math.Exp(u * z.logHi)
	} else {
		x = math.Pow(u*z.scale+1, z.inv)
	}
	k := int(x) - 1
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Perm fills dst with a random permutation of [0, len(dst)).
func (r *RNG) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
