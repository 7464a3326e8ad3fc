package main

import (
	"math"
	"sort"
)

// minTailSamples is how many samples must lie beyond a reported tail
// percentile: a p90 needs at least 100 samples, a p99 at least 1000.
const minTailSamples = 10

// quantile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty input yields NaN.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest of p50, p90, p99 and p99.9 that has
// at least minTailSamples of n samples beyond it, or 0 when even the
// median does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
		if float64(n)*(1-p) >= minTailSamples-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), so
// spreads computed here match the ones computed from the printed results.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		// The same integer arithmetic as CPython, including the clamp
		// that makes very small samples extrapolate.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (NaN when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}
