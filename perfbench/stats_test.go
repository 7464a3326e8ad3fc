package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from CPython.
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{2.5, 9, 1, 7, 3, 8}, 2.125, 5, 8.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 25}, {0.9, 37}, {1, 40}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("quantile reordered its input")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && float64(c.n)*(1-got) < minTailSamples-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than %d samples beyond it", c.n, got, minTailSamples)
		}
	}
}

func TestCompareMetricVerdicts(t *testing.T) {
	lower := metricDecl{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100.5, 99.5}
	for _, c := range []struct {
		name string
		m    metricDecl
		a, b []float64
		want verdict
	}{
		{"identical", lower, steady, steady, same},
		{"within bound", lower, steady, []float64{105, 106, 104, 105.5, 104.5}, same},
		{"slower beyond bound", lower, steady, []float64{120, 121, 119, 120.5, 119.5}, regressed},
		{"faster in every pair", lower, steady, []float64{80, 81, 79, 80.5, 79.5}, better},
		{"throughput drop", higher, steady, []float64{80, 81, 79, 80.5, 79.5}, regressed},
		{"too noisy to tell", lower, []float64{60, 140, 100, 70, 130}, []float64{120, 121, 119, 120.5, 119.5}, unresolved},
	} {
		if got, _ := compareMetric(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
