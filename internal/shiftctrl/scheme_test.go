package shiftctrl

import (
	"slices"
	"strings"
	"testing"

	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
)

func TestParseScheme(t *testing.T) {
	cases := map[string]Scheme{
		"baseline":        Baseline,
		"none":            Baseline,
		"sts":             STSOnly,
		"sed":             SED,
		"secded":          SECDED,
		"pecc":            SECDED,
		"pecco":           PECCO,
		"pecc-o":          PECCO,
		"worst":           PECCSWorst,
		"pecc-s-worst":    PECCSWorst,
		"adaptive":        PECCSAdaptive,
		"pecc-s-adaptive": PECCSAdaptive,
	}
	for in, want := range cases {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	_, err := ParseScheme("magic")
	if err == nil || !strings.Contains(err.Error(), `unknown scheme "magic"`) {
		t.Errorf("ParseScheme(\"magic\") error = %v, want unknown scheme \"magic\"", err)
	}
}

func TestSchemePolicyTable(t *testing.T) {
	// A 7-step shift takes ceil(0.8*7)+2 = 8 STS cycles, plus the check
	// cycle for every scheme that runs a p-ECC check.
	timing := DefaultTiming()
	cases := []struct {
		s           Scheme
		mode        CheckMode
		stepLimited bool
		cycles7     int
	}{
		{Baseline, CheckNone, false, 8},
		{STSOnly, CheckNone, false, 8},
		{SED, CheckDetect, false, 9},
		{SECDED, CheckCorrect, false, 9},
		{PECCO, CheckCorrect, true, 9},
		{PECCSWorst, CheckCorrect, false, 9},
		{PECCSAdaptive, CheckCorrect, false, 9},
	}
	for _, c := range cases {
		if got := c.s.CheckMode(); got != c.mode {
			t.Errorf("%v.CheckMode() = %d, want %d", c.s, got, c.mode)
		}
		if got := c.s.StepLimited(); got != c.stepLimited {
			t.Errorf("%v.StepLimited() = %t, want %t", c.s, got, c.stepLimited)
		}
		if got := c.s.OpCycles(timing, 7); got != c.cycles7 {
			t.Errorf("%v.OpCycles(7) = %d, want %d", c.s, got, c.cycles7)
		}
		if got := c.s.OpCycles(timing, 0); got != 0 {
			t.Errorf("%v.OpCycles(0) = %d, want 0", c.s, got)
		}
	}
}

func TestPlansAtLLCPoint(t *testing.T) {
	// memsim's LLC: 8-domain segments, p-ECC-S worst planned for four
	// banks each taking one 24-cycle access at 2 GHz, a 10-year DUE
	// target and 512-stripe groups.
	const maxDist, clockHz, peak, stripes = 7, 2e9, 4 * 2e9 / 24, 512
	target := 10 * mttf.SecondsPerYear
	whole := [][]int{nil, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	steps := [][]int{nil, {1}, {1, 1}, {1, 1, 1}, {1, 1, 1, 1}, {1, 1, 1, 1, 1},
		{1, 1, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1}}
	worst := [][]int{nil, {1}, {2}, {1, 2}, {1, 1, 2}, {1, 1, 1, 2},
		{2, 1, 1, 1, 1}, {1, 1, 1, 1, 1, 1, 1}}
	want := map[Scheme][][]int{
		Baseline: whole, STSOnly: whole, SED: whole, SECDED: whole,
		PECCO: steps, PECCSWorst: worst, PECCSAdaptive: worst,
	}
	intervals := []uint64{0, 1, 5, 12, 150, 3219, 1 << 32}
	for s, plans := range want {
		p := NewPlans(s, errmodel.Model{}, maxDist, clockHz, peak, target, stripes)
		if (p.Adapter() != nil) != (s == PECCSAdaptive) {
			t.Errorf("%v: Adapter() = %v", s, p.Adapter())
		}
		for d := 0; d <= maxDist; d++ {
			if got := p.Plan(d); !slices.Equal(got, plans[d]) {
				t.Errorf("%v: Plan(%d) = %v, want %v", s, d, got, plans[d])
			}
			if s == PECCSAdaptive {
				continue
			}
			for _, iv := range intervals {
				if got := p.Seq(d, iv); !slices.Equal(got, plans[d]) {
					t.Errorf("%v: Seq(%d, %d) = %v, want %v", s, d, iv, got, plans[d])
				}
			}
		}
	}

	// Under p-ECC-S adaptive, Seq is the adapter's choice.
	p := NewPlans(PECCSAdaptive, errmodel.Model{}, maxDist, clockHz, peak, target, stripes)
	ref := NewAdapter(NewPlanner(errmodel.Model{}, DefaultTiming(), maxDist, maxDist), clockHz, target, stripes)
	for d := 0; d <= maxDist; d++ {
		for _, iv := range intervals {
			if got, want := p.Seq(d, iv), ref.SequenceFor(d, iv); !slices.Equal(got, want) {
				t.Errorf("adaptive Seq(%d, %d) = %v, want %v", d, iv, got, want)
			}
		}
	}
	if p.Adapter().Stalls != ref.Stalls {
		t.Errorf("adaptive stalls = %d, want %d", p.Adapter().Stalls, ref.Stalls)
	}
}

func TestUniformDistances(t *testing.T) {
	got := UniformDistances(4)
	want := []float64{4.0 / 16, 6.0 / 16, 4.0 / 16, 2.0 / 16}
	if !slices.Equal(got, want) {
		t.Errorf("UniformDistances(4) = %v, want %v", got, want)
	}
	for _, n := range []int{-1, 0} {
		if got := UniformDistances(n); got != nil {
			t.Errorf("UniformDistances(%d) = %v, want nil", n, got)
		}
	}
}
