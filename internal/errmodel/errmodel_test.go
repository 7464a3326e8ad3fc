package errmodel

import (
	"math"
	"testing"
	"testing/quick"

	"racetrack/hifi/internal/sim"
)

func TestTable2ValuesExact(t *testing.T) {
	// The published Table 2 rates must be reproduced verbatim.
	var m Model
	wantK1 := []float64{4.55e-5, 9.95e-5, 2.07e-4, 3.76e-4, 5.94e-4, 8.43e-4, 1.10e-3}
	wantK2 := []float64{1.37e-21, 1.19e-20, 5.59e-20, 1.80e-19, 4.47e-19, 9.96e-18, 7.57e-15}
	for n := 1; n <= 7; n++ {
		if got := m.K1Rate(n); got != wantK1[n-1] {
			t.Errorf("K1Rate(%d) = %g, want %g", n, got, wantK1[n-1])
		}
		if got := m.K2Rate(n); got != wantK2[n-1] {
			t.Errorf("K2Rate(%d) = %g, want %g", n, got, wantK2[n-1])
		}
	}
}

func TestRatesMonotoneInDistance(t *testing.T) {
	// Paper observation: error rates increase with shift distance. This
	// must hold through the extrapolated region too.
	var m Model
	for n := 2; n <= 64; n++ {
		if m.K1Rate(n) < m.K1Rate(n-1) {
			t.Errorf("K1Rate decreasing at n=%d: %g < %g", n, m.K1Rate(n), m.K1Rate(n-1))
		}
		if m.K2Rate(n) < m.K2Rate(n-1) {
			t.Errorf("K2Rate decreasing at n=%d: %g < %g", n, m.K2Rate(n), m.K2Rate(n-1))
		}
	}
	// Strictly increasing below the saturation caps.
	for n := 2; n <= 40; n++ {
		if m.K1Rate(n) <= m.K1Rate(n-1) {
			t.Errorf("K1Rate not strictly increasing at n=%d", n)
		}
	}
}

func TestK2FarBelowK1(t *testing.T) {
	// Paper observation: rates decrease sharply with k; +-1 errors are the
	// critical problem.
	var m Model
	for n := 1; n <= 32; n++ {
		if m.K2Rate(n) >= m.K1Rate(n) {
			t.Errorf("K2 >= K1 at n=%d", n)
		}
		if m.K3PlusRate(n) >= m.K2Rate(n) {
			t.Errorf("K3+ >= K2 at n=%d", n)
		}
	}
}

func TestZeroAndNegativeDistance(t *testing.T) {
	var m Model
	if m.K1Rate(0) != 0 || m.K2Rate(0) != 0 || m.ErrorRate(0) != 0 {
		t.Error("zero-distance shift must be error-free")
	}
	if m.K1Rate(-3) != 0 {
		t.Error("negative distance must report zero rate")
	}
}

func TestKRateGeneral(t *testing.T) {
	var m Model
	if m.KRate(4, 1) != m.K1Rate(4) {
		t.Error("KRate(n,1) != K1Rate(n)")
	}
	if m.KRate(4, 2) != m.K2Rate(4) {
		t.Error("KRate(n,2) != K2Rate(n)")
	}
	if m.KRate(4, 4) >= m.KRate(4, 3) {
		t.Error("KRate not decreasing in k")
	}
}

func TestKRatePanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("KRate(1, 0) did not panic")
		}
	}()
	var m Model
	m.KRate(1, 0)
}

func TestRateScale(t *testing.T) {
	base := Model{}
	scaled := Model{RateScale: 10}
	if got, want := scaled.K1Rate(3), 10*base.K1Rate(3); math.Abs(got-want) > 1e-20 {
		t.Errorf("RateScale: got %g want %g", got, want)
	}
}

func TestSTSEliminatesStopInMiddle(t *testing.T) {
	withSTS := Model{}
	withoutSTS := Model{DisableSTS: true}
	for n := 1; n <= 7; n++ {
		if withSTS.StopInMiddleRate(n) != 0 {
			t.Errorf("STS enabled but stop-in-middle rate nonzero at n=%d", n)
		}
		if withoutSTS.StopInMiddleRate(n) <= 0 {
			t.Errorf("raw device must have stop-in-middle errors at n=%d", n)
		}
	}
}

func TestRawErrorRateInPaperRange(t *testing.T) {
	// Paper: "a typical position error rate is in the range of 1e-4 ~ 1e-5
	// for different shift operations" (raw device).
	raw := Model{DisableSTS: true}
	r1 := raw.ErrorRate(1)
	if r1 < 1e-5 || r1 > 1e-3 {
		t.Errorf("raw 1-step error rate %g outside plausible range", r1)
	}
}

func TestErrorRateCapped(t *testing.T) {
	m := Model{RateScale: 1e6, DisableSTS: true}
	if r := m.ErrorRate(7); r > 1 {
		t.Errorf("ErrorRate exceeded 1: %g", r)
	}
}

func TestSampleMatchesRates(t *testing.T) {
	// With inflated rates the sampler's empirical frequencies must match
	// the analytic rates.
	m := Model{RateScale: 1e2}
	r := sim.NewRNG(1)
	const trials = 2_000_000
	var k1, correct int
	for i := 0; i < trials; i++ {
		o := m.Sample(7, r)
		switch {
		case o.Correct():
			correct++
		case o.StepOffset == 1 || o.StepOffset == -1:
			k1++
		}
	}
	want := m.K1Rate(7)
	got := float64(k1) / trials
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("sampled k1 rate %g, want %g", got, want)
	}
	if correct == 0 {
		t.Error("no correct outcomes sampled")
	}
}

func TestSampleZeroDistance(t *testing.T) {
	var m Model
	r := sim.NewRNG(2)
	if o := m.Sample(0, r); !o.Correct() {
		t.Errorf("0-step sample should be correct, got %v", o)
	}
}

func TestSampleOverShiftBias(t *testing.T) {
	// Errors should lean to the over-shift side (+) per the paper's
	// asymmetry note.
	m := Model{RateScale: 1e4}
	r := sim.NewRNG(3)
	var plus, minus int
	for i := 0; i < 500000; i++ {
		o := m.Sample(7, r)
		if o.StepOffset > 0 {
			plus++
		} else if o.StepOffset < 0 {
			minus++
		}
	}
	if plus <= minus {
		t.Errorf("over-shift bias violated: +%d vs -%d", plus, minus)
	}
}

func TestOutcomeString(t *testing.T) {
	cases := []struct {
		o    Outcome
		want string
	}{
		{Outcome{}, "correct"},
		{Outcome{StepOffset: 2}, "out-of-step +2"},
		{Outcome{StepOffset: -1}, "out-of-step -1"},
		{Outcome{StopInMiddle: true}, "stop-in-middle"},
	}
	for _, c := range cases {
		if got := c.o.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.o, got, c.want)
		}
	}
}

func TestQuickRatesAreProbabilities(t *testing.T) {
	f := func(n uint8, scale float64) bool {
		if math.IsNaN(scale) || scale < 0 || scale > 1e3 {
			return true
		}
		m := Model{RateScale: scale}
		d := int(n%64) + 1
		for _, r := range []float64{m.K1Rate(d), m.K2Rate(d), m.ErrorRate(d)} {
			if r < 0 || r > 1 || math.IsNaN(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSampleAlwaysValid(t *testing.T) {
	m := Model{RateScale: 100, DisableSTS: true}
	r := sim.NewRNG(4)
	for i := 0; i < 100000; i++ {
		o := m.Sample(i%8, r)
		if o.StopInMiddle && o.StepOffset > 3 {
			t.Fatalf("implausible outcome %+v", o)
		}
		if o.StepOffset > 3 || o.StepOffset < -3 {
			t.Fatalf("sample produced |k|>3 which has negligible rate: %+v", o)
		}
	}
}

func TestExtrapolationContinuity(t *testing.T) {
	// The extrapolated curve should connect to the tabulated values within
	// a factor of 2 at the boundary.
	var m Model
	p7 := m.K1Rate(7)
	p8 := m.K1Rate(8)
	if p8/p7 > 2 || p8/p7 < 1 {
		t.Errorf("K1 extrapolation discontinuous: p7=%g p8=%g", p7, p8)
	}
	q7 := m.K2Rate(7)
	q8 := m.K2Rate(8)
	if q8 <= q7 {
		t.Errorf("K2 extrapolation not increasing: %g -> %g", q7, q8)
	}
}

// The error model stops at |k| = 3: K3PlusRate is the k = 3 rate and
// Sample never draws a larger offset, at any distance up to twice the
// table's, even where the rates are scaled up until k = 3 errors are
// common.
func TestTailTruncatedAtThreeSteps(t *testing.T) {
	for _, m := range []Model{{}, {RateScale: 10}, {RateScale: 10, DisableSTS: true}} {
		for n := 1; n <= 2*MaxTabulated+1; n++ {
			if got, want := m.K3PlusRate(n), m.KRate(n, 3); got != want {
				t.Errorf("%+v: K3PlusRate(%d) = %g, KRate(%d, 3) = %g", m, n, got, n, want)
			}
		}
	}
	m := Model{RateScale: 10}
	r := sim.NewRNG(5)
	k3 := 0
	for n := 1; n <= 2*MaxTabulated+1; n++ {
		for i := 0; i < 20_000; i++ {
			switch o := m.Sample(n, r); {
			case o.StepOffset > 3 || o.StepOffset < -3:
				t.Fatalf("Sample(%d) drew %v, past the model's |k| <= 3", n, o)
			case o.StepOffset == 3 || o.StepOffset == -3:
				k3++
			}
		}
	}
	if k3 == 0 {
		t.Error("no |k| = 3 outcome drawn: the bound was not exercised")
	}
}
