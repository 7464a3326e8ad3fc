package shiftctrl

import (
	"math"
	"reflect"
	"testing"

	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
)

func TestOpCyclesMatchesPaper(t *testing.T) {
	// Paper Table 3b latencies imply ceil(0.8n)+3 per operation.
	tm := DefaultTiming()
	want := map[int]int{1: 4, 2: 5, 3: 6, 4: 7, 7: 9}
	for n, w := range want {
		if got := tm.OpCycles(n); got != w {
			t.Errorf("OpCycles(%d) = %d, want %d", n, got, w)
		}
	}
	if tm.OpCycles(0) != 0 {
		t.Error("OpCycles(0) != 0")
	}
}

func TestSeqCyclesTable3(t *testing.T) {
	// Every latency in paper Table 3(b).
	tm := DefaultTiming()
	cases := []struct {
		seq  []int
		want int
	}{
		{[]int{7}, 9},
		{[]int{4, 3}, 13},
		{[]int{3, 2, 2}, 16},
		{[]int{2, 2, 2, 1}, 19},
		{[]int{2, 2, 1, 1, 1}, 22},
		{[]int{2, 1, 1, 1, 1, 1}, 25},
		{[]int{1, 1, 1, 1, 1, 1, 1}, 28},
	}
	for _, c := range cases {
		if got := tm.SeqCycles(c.seq); got != c.want {
			t.Errorf("SeqCycles(%v) = %d, want %d", c.seq, got, c.want)
		}
	}
}

func TestSafeDistance(t *testing.T) {
	var em errmodel.Model
	// With a bound just above the 3-step k2 rate, safe distance is 3.
	d := SafeDistance(em, 6e-20, 7)
	if d != 3 {
		t.Errorf("SafeDistance = %d, want 3", d)
	}
	// Huge budget: full segment distance.
	if d := SafeDistance(em, 1, 7); d != 7 {
		t.Errorf("SafeDistance(loose) = %d, want 7", d)
	}
	// Tiny budget: still 1 (finest possible operation).
	if d := SafeDistance(em, 1e-30, 7); d != 1 {
		t.Errorf("SafeDistance(tight) = %d, want 1", d)
	}
}

func TestSafeIntensityTable3a(t *testing.T) {
	// Paper Table 3(a): safe distance vs shift intensity, for the 10-year
	// DUE target and 512-stripe groups.
	var em errmodel.Model
	target := 10 * mttf.SecondsPerYear
	want := map[int]float64{
		1: 4.53e9,
		2: 518e6,
		3: 111e6,
		4: 34.3e6,
		5: 13.9e6,
		6: 621e3,
		7: 0.82e3,
	}
	for n, w := range want {
		got := SafeIntensity(em, n, target, 512)
		if math.Abs(got-w)/w > 0.03 {
			t.Errorf("SafeIntensity(%d) = %.3g, want %.3g (Table 3a)", n, got, w)
		}
	}
}

func TestPlannerUnconstrained(t *testing.T) {
	p := NewPlanner(errmodel.Model{}, DefaultTiming(), 7, 7)
	seq, err := p.Plan(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, []int{7}) {
		t.Errorf("unconstrained plan = %v, want [7]", seq)
	}
}

func TestPlannerZeroDistance(t *testing.T) {
	p := NewPlanner(errmodel.Model{}, DefaultTiming(), 7, 7)
	seq, err := p.Plan(0, 1)
	if err != nil || seq != nil {
		t.Errorf("Plan(0) = %v, %v", seq, err)
	}
}

func TestPlannerOutOfRange(t *testing.T) {
	p := NewPlanner(errmodel.Model{}, DefaultTiming(), 7, 7)
	if _, err := p.Plan(8, 1); err == nil {
		t.Error("Plan beyond range accepted")
	}
}

func TestPlannerTable3bSequences(t *testing.T) {
	// Reproduce paper Table 3(b): the safe sequences for a 7-step shift at
	// each interval regime. The rate budget for interval I cycles is
	// 1/(T * (clock/I) * 512).
	em := errmodel.Model{}
	p := NewPlanner(em, DefaultTiming(), 7, 7)
	target := 10 * mttf.SecondsPerYear
	const clock = 2e9
	budget := func(interval float64) float64 {
		return interval / (clock * target * 512)
	}
	cases := []struct {
		interval float64
		want     []int
	}{
		{3e6, []int{7}},
		{100, []int{4, 3}},
		{30, []int{3, 2, 2}},
		{13, []int{2, 2, 2, 1}},
		{10, []int{2, 2, 1, 1, 1}},
		{7, []int{2, 1, 1, 1, 1, 1}},
		{4, []int{1, 1, 1, 1, 1, 1, 1}},
	}
	for _, c := range cases {
		seq, err := p.Plan(7, budget(c.interval))
		if err != nil {
			t.Errorf("interval %v: %v", c.interval, err)
			continue
		}
		if !sameMultiset(seq, c.want) {
			t.Errorf("interval %v: plan %v, want %v", c.interval, seq, c.want)
		}
	}
}

func TestPlannerFallbackBelowOneStep(t *testing.T) {
	p := NewPlanner(errmodel.Model{}, DefaultTiming(), 7, 7)
	seq, err := p.Plan(7, 1e-30)
	if err == nil {
		t.Error("expected error when even 1-step ops exceed the budget")
	}
	if !reflect.DeepEqual(seq, []int{1, 1, 1, 1, 1, 1, 1}) {
		t.Errorf("fallback = %v", seq)
	}
}

func TestPlannerLongDistances(t *testing.T) {
	// Long-segment configurations (Fig 12/13/15) need distances up to 63.
	p := NewPlanner(errmodel.Model{}, DefaultTiming(), 63, 63)
	seq, err := p.Plan(63, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range seq {
		total += s
	}
	if total != 63 {
		t.Errorf("plan distances sum to %d, want 63", total)
	}
	// Tight budget forces small steps everywhere.
	seq, _ = p.Plan(63, 5e-20)
	for _, s := range seq {
		if s > 3 {
			t.Errorf("step %d exceeds budget-implied max 3 in %v", s, seq)
		}
	}
}

func TestSeqUncorrectableRateAdds(t *testing.T) {
	em := errmodel.Model{}
	got := SeqUncorrectableRate(em, []int{4, 3})
	want := em.K2Rate(4) + em.K2Rate(3)
	if got != want {
		t.Errorf("rate %g, want %g", got, want)
	}
}

func TestAdapterTable3bIntervals(t *testing.T) {
	// Paper Table 3(b): interval thresholds for the 7-step sequences.
	em := errmodel.Model{}
	p := NewPlanner(em, DefaultTiming(), 7, 7)
	a := NewAdapter(p, 2e9, 10*mttf.SecondsPerYear, 512)
	rows := a.Table(7)
	if len(rows) < 7 {
		t.Fatalf("adapter table for distance 7 has %d rows, want >= 7", len(rows))
	}
	// First (fastest) row is the single 7-step shift at ~2.45M cycles.
	if rows[0].Cycles != 9 {
		t.Errorf("fastest row cycles = %d, want 9", rows[0].Cycles)
	}
	if math.Abs(float64(rows[0].MinInterval)-2.445e6)/2.445e6 > 0.02 {
		t.Errorf("fastest row interval = %d, want ~2445260 (Table 3b)", rows[0].MinInterval)
	}
	// The {4,3} row at 13 cycles needs interval ~76.
	found := false
	for _, row := range rows {
		if row.Cycles == 13 {
			found = true
			if row.MinInterval < 60 || row.MinInterval > 90 {
				t.Errorf("{4,3} interval = %d, want ~76", row.MinInterval)
			}
		}
	}
	if !found {
		t.Error("no 13-cycle row in adapter table")
	}
	// Slowest row: all 1-step, 28 cycles, interval ~3.
	last := rows[len(rows)-1]
	if last.Cycles != 28 {
		t.Errorf("slowest row cycles = %d, want 28", last.Cycles)
	}
	if last.MinInterval > 5 {
		t.Errorf("slowest row interval = %d, want ~3", last.MinInterval)
	}
}

func TestAdapterSequenceFor(t *testing.T) {
	em := errmodel.Model{}
	p := NewPlanner(em, DefaultTiming(), 7, 7)
	a := NewAdapter(p, 2e9, 10*mttf.SecondsPerYear, 512)
	// Huge interval: single shift.
	if seq := a.SequenceFor(7, 1<<40); !reflect.DeepEqual(seq, []int{7}) {
		t.Errorf("idle sequence = %v, want [7]", seq)
	}
	if a.Stalls != 0 {
		t.Errorf("stalls after an idle lookup = %d, want 0", a.Stalls)
	}
	// Tiny interval: all 1-step, and the slowest row still wanted a
	// longer one, so the lookup counts a stall.
	if seq := a.SequenceFor(7, 1); len(seq) != 7 {
		t.Errorf("busy sequence = %v, want seven 1-steps", seq)
	}
	if a.Stalls != 1 {
		t.Errorf("stalls after a too-early lookup = %d, want 1", a.Stalls)
	}
	// Zero distance.
	if seq := a.SequenceFor(0, 100); seq != nil {
		t.Errorf("zero distance sequence = %v", seq)
	}
}

func TestAdapterMonotone(t *testing.T) {
	// Longer intervals must never produce slower sequences.
	em := errmodel.Model{}
	p := NewPlanner(em, DefaultTiming(), 7, 7)
	a := NewAdapter(p, 2e9, 10*mttf.SecondsPerYear, 512)
	tm := DefaultTiming()
	prev := math.MaxInt32
	for _, iv := range []uint64{1, 5, 8, 11, 20, 50, 100, 1e6, 1e9} {
		c := tm.SeqCycles(a.SequenceFor(7, iv))
		if c > prev {
			t.Errorf("interval %d: cycles %d > previous %d", iv, c, prev)
		}
		prev = c
	}
}

func TestWorstCaseSequence(t *testing.T) {
	// Paper §5.2: a 128MB racetrack memory supports up to 83M accesses/s,
	// so the conservative safe distance is 3 steps.
	em := errmodel.Model{}
	p := NewPlanner(em, DefaultTiming(), 7, 7)
	seq := WorstCaseSequence(p, 7, 83e6, 10*mttf.SecondsPerYear, 512)
	for _, s := range seq {
		if s > 3 {
			t.Errorf("worst-case plan %v uses step > 3 (paper: safe distance 3)", seq)
		}
	}
	total := 0
	for _, s := range seq {
		total += s
	}
	if total != 7 {
		t.Errorf("plan sums to %d", total)
	}
}

func TestSchemeProperties(t *testing.T) {
	if Baseline.UsesSTS() {
		t.Error("baseline must not use STS")
	}
	for _, s := range []Scheme{STSOnly, SED, SECDED, PECCO, PECCSWorst, PECCSAdaptive} {
		if !s.UsesSTS() {
			t.Errorf("%v should use STS", s)
		}
	}
	if !PECCO.StepLimited() || SECDED.StepLimited() {
		t.Error("StepLimited wrong")
	}
	if !PECCSWorst.UsesSafeDistance() || !PECCSAdaptive.UsesSafeDistance() || SECDED.UsesSafeDistance() {
		t.Error("UsesSafeDistance wrong")
	}
	names := map[Scheme]string{
		Baseline: "baseline", SED: "sed-pecc", SECDED: "secded-pecc",
		PECCO: "secded-pecc-o", PECCSWorst: "secded-pecc-s-worst",
		PECCSAdaptive: "secded-pecc-s-adaptive", STSOnly: "sts-only",
	}
	for s, n := range names {
		if s.String() != n {
			t.Errorf("String(%d) = %q, want %q", s, s.String(), n)
		}
	}
	if Scheme(99).String() != "unknown-scheme" {
		t.Error("unknown scheme string")
	}
}

func TestFailureRateClassification(t *testing.T) {
	em := errmodel.Model{}
	n := 4
	// Baseline: everything silent, nothing detected.
	sdc, due := Baseline.FailureRates(em, n)
	if due != 0 || sdc <= em.K1Rate(n) {
		t.Errorf("baseline: sdc=%g due=%g", sdc, due)
	}
	// SED: k1 detected (DUE), k2 silent.
	sdc, due = SED.FailureRates(em, n)
	if sdc != em.K2Rate(n) {
		t.Errorf("SED sdc = %g, want k2 %g", sdc, em.K2Rate(n))
	}
	if due < em.K1Rate(n) {
		t.Errorf("SED due = %g, want >= k1 %g", due, em.K1Rate(n))
	}
	// SECDED: k1 corrected, k2 → DUE, k3 → SDC.
	sdc, due = SECDED.FailureRates(em, n)
	if due != em.K2Rate(n) {
		t.Errorf("SECDED due = %g, want k2", due)
	}
	if sdc != em.K3PlusRate(n) {
		t.Errorf("SECDED sdc = %g, want k3+", sdc)
	}
	// Zero distance: no failures.
	if s, d := SECDED.FailureRates(em, 0); s != 0 || d != 0 {
		t.Error("zero distance should have zero failure rates")
	}
}

func TestFailureRateOrdering(t *testing.T) {
	// Stronger protection must strictly dominate on SDC at every distance.
	em := errmodel.Model{}
	for n := 1; n <= 7; n++ {
		b, _ := Baseline.FailureRates(em, n)
		s, _ := SED.FailureRates(em, n)
		c, _ := SECDED.FailureRates(em, n)
		if !(b > s && s > c) {
			t.Errorf("n=%d: SDC ordering violated: baseline %g, SED %g, SECDED %g", n, b, s, c)
		}
	}
}

func sameMultiset(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[int]int{}
	for _, x := range a {
		count[x]++
	}
	for _, x := range b {
		count[x]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}
