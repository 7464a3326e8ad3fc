package sim

import (
	"math"
	"testing"
)

// Additional coverage for the generator's less-used paths.

func TestUint64nRange(t *testing.T) {
	r := NewRNG(41)
	for i := 0; i < 10000; i++ {
		if v := r.Uint64n(17); v >= 17 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
	}
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	NewRNG(1).Uint64n(0)
}

func TestBoolFrequencies(t *testing.T) {
	r := NewRNG(43)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1.1) {
		t.Error("Bool(>1) returned false")
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(47)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Exponential(0.5))
	}
	if math.Abs(s.Mean()-2) > 0.05 {
		t.Errorf("Exponential(0.5) mean = %v, want 2", s.Mean())
	}
	if s.Min() < 0 {
		t.Error("Exponential produced negative value")
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	NewRNG(1).Exponential(0)
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			NewRNG(1).Geometric(p)
		}()
	}
}

func TestGeometricPOne(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		if r.Geometric(1) != 0 {
			t.Fatal("Geometric(1) must be 0")
		}
	}
}

func TestZipfSingleton(t *testing.T) {
	r := NewRNG(1)
	if r.Zipf(1, 1.2) != 0 {
		t.Fatal("Zipf(1) must be 0")
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Zipf(0) did not panic")
		}
	}()
	NewRNG(1).Zipf(0, 1)
}

func TestZipfSEqualOne(t *testing.T) {
	// The s == 1 branch uses the logarithmic CDF.
	r := NewRNG(53)
	counts := make([]int, 8)
	for i := 0; i < 50000; i++ {
		counts[r.Zipf(8, 1)]++
	}
	if counts[0] <= counts[7] {
		t.Errorf("Zipf(s=1) not skewed: %v", counts)
	}
}

func TestNormalShiftScale(t *testing.T) {
	r := NewRNG(59)
	var s Summary
	for i := 0; i < 100000; i++ {
		s.Add(r.Normal(5, 3))
	}
	if math.Abs(s.Mean()-5) > 0.05 || math.Abs(s.StdDev()-3) > 0.05 {
		t.Errorf("Normal(5,3): mean %v sd %v", s.Mean(), s.StdDev())
	}
}

func TestSummaryStringAndHistogramPanics(t *testing.T) {
	var s Summary
	s.Add(1)
	if s.String() == "" {
		t.Error("empty String")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewHistogram with bad bounds did not panic")
		}
	}()
	NewHistogram(1, 1, 4)
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(empty) did not panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GeoMean with 0 did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestGeoMeanEmpty(t *testing.T) {
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) should be 0")
	}
}

// TestSamplersMatchClosedForms: the precomputed samplers must return the
// same bits, and consume the same randomness, as evaluating the inverse
// CDFs in full on every draw.
func TestSamplersMatchClosedForms(t *testing.T) {
	geometric := func(r *RNG, p float64) int {
		if p == 1 {
			return 0
		}
		return int(math.Floor(math.Log(1-r.Float64()) / math.Log(1-p)))
	}
	for _, p := range []float64{1, 0.5, 1.0 / 6, 1 / 21.0, 1e-3} {
		g := NewGeometricSampler(p)
		a, b := NewRNG(7), NewRNG(7)
		for i := 0; i < 2000; i++ {
			if got, want := g.Draw(a), geometric(b, p); got != want {
				t.Fatalf("Geometric(%v) draw %d = %d, closed form %d", p, i, got, want)
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Geometric(%v) consumed different randomness", p)
		}
	}
	zipf := func(r *RNG, n int, s float64) int {
		if n == 1 {
			return 0
		}
		u := r.Float64()
		hi := float64(n + 1)
		var x float64
		if s == 1 {
			x = math.Exp(u * math.Log(hi))
		} else {
			x = math.Pow(u*(math.Pow(hi, 1-s)-1)+1, 1/(1-s))
		}
		return min(max(int(x)-1, 0), n-1)
	}
	for _, n := range []int{1, 2, 1000, 393216} {
		for _, s := range []float64{0.3, 0.9, 1, 1.1} {
			z := NewZipfSampler(n, s)
			a, b := NewRNG(11), NewRNG(11)
			for i := 0; i < 2000; i++ {
				if got, want := z.Draw(a), zipf(b, n, s); got != want {
					t.Fatalf("Zipf(%d, %v) draw %d = %d, closed form %d", n, s, i, got, want)
				}
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("Zipf(%d, %v) consumed different randomness", n, s)
			}
		}
	}
}
