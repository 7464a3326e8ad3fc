package design

import (
	"math"
	"strings"
	"testing"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/shiftctrl"
)

func TestEvaluateValidation(t *testing.T) {
	req := DefaultRequirements()
	if _, err := Evaluate(7, 64, shiftctrl.SECDED, 1, req); err == nil {
		t.Error("non-dividing segLen accepted")
	}
	if _, err := Evaluate(4, 64, shiftctrl.SECDED, 3, req); err == nil {
		t.Error("strength >= segLen-1 accepted")
	}
}

func TestEvaluatePaperPoint(t *testing.T) {
	// The paper's configuration (8x8, SECDED with safe distance) must
	// meet the reliability targets at the LLC intensity.
	req := DefaultRequirements()
	pt, err := Evaluate(8, 64, shiftctrl.PECCSWorst, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	if mttf.Years(pt.DUEMTTF) < 10 {
		t.Errorf("paper point DUE MTTF = %.1f years, want >= 10", mttf.Years(pt.DUEMTTF))
	}
	if mttf.Years(pt.SDCMTTF) < 1000 {
		t.Errorf("paper point SDC MTTF = %.1f years, want >= 1000", mttf.Years(pt.SDCMTTF))
	}
	if pt.AreaPerBit <= 0 || pt.AvgLatency <= 0 || pt.AvgEnergy <= 0 {
		t.Errorf("degenerate metrics: %+v", pt)
	}
	if !strings.Contains(pt.Label(), "8x8") {
		t.Errorf("label = %q", pt.Label())
	}
}

func TestPlainSECDEDFailsDUETarget(t *testing.T) {
	// Without safe-distance planning, unconstrained SECDED at full
	// intensity misses the 10-year DUE target (the paper's Fig 11 point
	// that motivates p-ECC-S).
	req := DefaultRequirements()
	pt, err := Evaluate(8, 64, shiftctrl.SECDED, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	if mttf.Years(pt.DUEMTTF) >= 10 {
		t.Errorf("plain SECDED DUE MTTF = %.1f years; expected to miss the target", mttf.Years(pt.DUEMTTF))
	}
}

func TestSearchFindsFeasiblePoints(t *testing.T) {
	feasible, rejected := Search(DefaultSpace(), DefaultRequirements())
	if len(feasible) == 0 {
		t.Fatal("no feasible configurations at the paper's requirements")
	}
	if rejected == 0 {
		t.Error("no configurations rejected — requirements not binding")
	}
	// Every feasible point actually meets the targets.
	for _, p := range feasible {
		if mttf.Years(p.DUEMTTF) < 10 || mttf.Years(p.SDCMTTF) < 1000 {
			t.Errorf("%s: infeasible point returned (%.1fy DUE)", p.Label(), mttf.Years(p.DUEMTTF))
		}
	}
	// Sorted by area.
	for i := 1; i < len(feasible); i++ {
		if feasible[i].AreaPerBit < feasible[i-1].AreaPerBit {
			t.Fatal("feasible set not sorted by area")
		}
	}
}

func TestSearchHonorsAreaCap(t *testing.T) {
	req := DefaultRequirements()
	req.MaxAreaPerBit = 9.0
	feasible, _ := Search(DefaultSpace(), req)
	for _, p := range feasible {
		if p.AreaPerBit > 9.0 {
			t.Errorf("%s exceeds area cap: %v", p.Label(), p.AreaPerBit)
		}
	}
}

func TestSearchHonorsLatencyCap(t *testing.T) {
	req := DefaultRequirements()
	req.MaxLatency = 8
	feasible, _ := Search(DefaultSpace(), req)
	for _, p := range feasible {
		if p.AvgLatency > 8 {
			t.Errorf("%s exceeds latency cap: %v", p.Label(), p.AvgLatency)
		}
	}
	// p-ECC-O on long segments must be excluded by this cap.
	for _, p := range feasible {
		if p.Scheme == shiftctrl.PECCO && p.SegLen >= 16 {
			t.Errorf("p-ECC-O at segLen %d passed an 8-cycle latency cap", p.SegLen)
		}
	}
}

func TestParetoDominance(t *testing.T) {
	feasible, _ := Search(DefaultSpace(), DefaultRequirements())
	frontier := Pareto(feasible)
	if len(frontier) == 0 || len(frontier) > len(feasible) {
		t.Fatalf("frontier size %d of %d", len(frontier), len(feasible))
	}
	// No frontier point dominates another.
	for i, p := range frontier {
		for j, q := range frontier {
			if i == j {
				continue
			}
			if q.AreaPerBit <= p.AreaPerBit && q.AvgLatency <= p.AvgLatency &&
				q.DUEMTTF >= p.DUEMTTF &&
				(q.AreaPerBit < p.AreaPerBit || q.AvgLatency < p.AvgLatency || q.DUEMTTF > p.DUEMTTF) {
				t.Fatalf("frontier point %s dominated by %s", p.Label(), q.Label())
			}
		}
	}
}

func TestHigherStrengthCostsArea(t *testing.T) {
	req := DefaultRequirements()
	m1, err := Evaluate(8, 64, shiftctrl.PECCSWorst, 1, req)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Evaluate(8, 64, shiftctrl.PECCSWorst, 2, req)
	if err != nil {
		t.Fatal(err)
	}
	if m2.AreaPerBit < m1.AreaPerBit {
		t.Error("stronger code should not shrink area")
	}
	if m2.DUEMTTF <= m1.DUEMTTF {
		t.Error("stronger code should raise DUE MTTF")
	}
}

func TestAvgEnergyIsTheShiftEnergyModel(t *testing.T) {
	// AvgEnergy is energy.ShiftCosts.SeqNJ of each distance's plan,
	// p-ECC detection included, averaged over uniform offsets.
	req := DefaultRequirements()
	shiftE := energy.DefaultShift()
	dist := shiftctrl.UniformDistances(8)
	for _, scheme := range DefaultSpace().Schemes {
		pt, err := Evaluate(8, 64, scheme, 1, req)
		if err != nil {
			t.Fatal(err)
		}
		plans := shiftctrl.NewPlans(scheme, errmodel.Model{}, 7, 2e9, req.Intensity,
			10*mttf.SecondsPerYear, req.Stripes)
		var nj, mass float64
		for d := 1; d < 8; d++ {
			nj += dist[d] * shiftE.SeqNJ(plans.Plan(d), scheme.StepLimited())
			mass += dist[d]
		}
		if want := nj / mass; math.Abs(pt.AvgEnergy-want) > 1e-12*want {
			t.Errorf("%v: AvgEnergy = %.6f nJ, want %.6f", scheme, pt.AvgEnergy, want)
		}
	}
}
