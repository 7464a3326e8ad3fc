package faults

import (
	"math"
	"strings"
	"testing"

	"racetrack/hifi/internal/errmodel"
)

func TestNormAndCanonical(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Norm() != nil || nilPlan.Canonical() != "" {
		t.Error("nil plan must normalize to nil with empty canonical form")
	}
	empty := &Plan{Seed: 7}
	if empty.Norm() != nil || empty.Canonical() != "" {
		t.Error("empty plan must normalize to nil: injection off has exactly one representation")
	}
	p := &Plan{Seed: 2, Injectors: []Injector{{Kind: KindDrift, PerOp: 1e-4}}}
	c1, c2 := p.Canonical(), p.Canonical()
	if c1 == "" || c1 != c2 {
		t.Errorf("canonical form unstable: %q vs %q", c1, c2)
	}
	if !strings.Contains(c1, `"drift"`) {
		t.Errorf("canonical form lost the injector kind: %s", c1)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte(`{"injectors":[{"kind":"nope"}]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Parse([]byte(`{"injectors":[{"kind":"burst","boost":2,"len":8,"period":4}]}`)); err == nil {
		t.Error("len > period accepted")
	}
	if _, err := Parse([]byte(`{"typo_field":1}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	p, err := Parse([]byte(`{"seed":3,"injectors":[{"kind":"stuck","period":100}]}`))
	if err != nil || p == nil || p.Seed != 3 {
		t.Fatalf("valid plan rejected: %v %+v", err, p)
	}
	// Round trip through the canonical form.
	p2, err := Parse([]byte(p.Canonical()))
	if err != nil || p2.Canonical() != p.Canonical() {
		t.Errorf("canonical round trip failed: %v", err)
	}
}

// A non-finite intensity, given or reached by scaling, is refused where
// the plan is resolved; the canonical form could not encode it.
func TestResolveRejectsNonFiniteIntensity(t *testing.T) {
	huge := []byte(`{"injectors":[{"kind":"stuck","period":100,"intensity":1e308}]}`)
	for _, tc := range []struct {
		preset    string
		plan      []byte
		intensity float64
	}{
		{"temp", nil, math.NaN()},
		{"temp", nil, math.Inf(1)},
		{"", huge, 10},
		{"", huge, math.NaN()},
	} {
		p, err := Resolve(tc.preset, tc.plan, tc.intensity)
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("Resolve(%q, %s, %g) = %v, %v; want a not-finite error", tc.preset, tc.plan, tc.intensity, p.Canonical(), err)
		}
	}
	if p, err := Resolve("", huge, 1); err != nil || p == nil {
		t.Errorf("a finite 1e308 intensity: %v", err)
	}
	// Intensity 0 keeps its meaning: the plan, every injector disabled.
	p, err := Resolve("temp", nil, 0)
	if err != nil || p == nil || !p.Injectors[0].Disabled {
		t.Errorf("Resolve(temp, 0) = %+v, %v; want the disabled plan", p, err)
	}
}

func TestNewNilForEmpty(t *testing.T) {
	d, err := New(nil)
	if d != nil || err != nil {
		t.Fatalf("nil plan: device=%v err=%v, want nil/nil", d, err)
	}
	d, err = New(&Plan{})
	if d != nil || err != nil {
		t.Fatalf("empty plan: device=%v err=%v, want nil/nil", d, err)
	}
	if _, err := New(&Plan{Injectors: []Injector{{Kind: "bogus"}}}); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestNilDeviceIsIdentity(t *testing.T) {
	var d *Device
	m := d.Advance()
	if !m.Identity() {
		t.Errorf("nil device modulation = %+v, want identity", m)
	}
	if d.Ops() != 0 {
		t.Error("nil device counts ops")
	}
}

func TestDeterminism(t *testing.T) {
	plan := &Plan{Seed: 5, Injectors: []Injector{
		{Kind: KindMarkov, Boost: 10, PEnter: 0.05, PExit: 0.2},
		{Kind: KindBurst, Boost: 4, Len: 3, Period: 10},
		{Kind: KindStuck, Period: 17},
	}}
	d1, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := New(plan)
	for i := 0; i < 5000; i++ {
		if d1.Advance() != d2.Advance() {
			t.Fatalf("modulation diverged at op %d", i)
		}
	}
	if d1.Ops() != 5000 {
		t.Errorf("ops = %d, want 5000", d1.Ops())
	}
}

func TestBurstWindows(t *testing.T) {
	d, err := New(&Plan{Injectors: []Injector{{Kind: KindBurst, Boost: 7, Len: 2, Period: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 20; op++ {
		m := d.Advance()
		inBurst := op%5 < 2
		if inBurst && (m.RateFactor != 7 || !m.OverBias) {
			t.Errorf("op %d: in-burst mod = %+v, want factor 7 with over-bias", op, m)
		}
		if !inBurst && !m.Identity() {
			t.Errorf("op %d: calm mod = %+v, want identity", op, m)
		}
	}
}

func TestStuckPeriodAndDefaultOffset(t *testing.T) {
	d, err := New(&Plan{Injectors: []Injector{{Kind: KindStuck, Period: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	forced := 0
	for op := 0; op < 40; op++ {
		m := d.Advance()
		if m.ForceOffset != 0 {
			forced++
			if m.ForceOffset != -1 {
				t.Errorf("default stuck offset = %d, want -1", m.ForceOffset)
			}
		}
	}
	if forced != 10 {
		t.Errorf("forced %d of 40 ops at period 4, want 10", forced)
	}
	d2, _ := New(&Plan{Injectors: []Injector{{Kind: KindStuck, Period: 1, Offset: 2}}})
	if m := d2.Advance(); m.ForceOffset != 2 {
		t.Errorf("stuck offset 2 forces %d", m.ForceOffset)
	}
}

func TestTempExcursionShape(t *testing.T) {
	in := Injector{Kind: KindTemp, PeakC: 85, RampOps: 4, HoldOps: 2, Period: 4}
	d, err := New(&Plan{Injectors: []Injector{in}})
	if err != nil {
		t.Fatal(err)
	}
	var temps []float64
	for op := 0; op < 14; op++ { // one full cycle
		temps = append(temps, d.Advance().TempC)
	}
	// Ramp up strictly increasing to the peak.
	for i := 1; i < 4; i++ {
		if temps[i] <= temps[i-1] {
			t.Errorf("ramp not increasing at op %d: %v", i, temps[:4])
		}
	}
	if temps[3] != 85 || temps[4] != 85 || temps[5] != 85 {
		t.Errorf("hold window not at peak: %v", temps[3:6])
	}
	for i := 10; i < 14; i++ {
		if temps[i] != 0 {
			t.Errorf("idle op %d at %gC, want nominal 0", i, temps[i])
		}
	}
	// The modulated model's rates rise with the excursion.
	em := errmodel.Model{}
	hot := Mod{RateFactor: 1, TempC: 85}.Apply(em)
	if hot.K1Rate(4) <= em.K1Rate(4) {
		t.Error("85C excursion did not raise the k=1 rate")
	}
}

func TestDriftGrowsAndCaps(t *testing.T) {
	d, err := New(&Plan{Injectors: []Injector{{Kind: KindDrift, PerOp: 0.1, Cap: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	var last float64
	for op := 0; op < 100; op++ {
		f := d.Advance().RateFactor
		if f < prev {
			t.Errorf("drift factor shrank at op %d: %g < %g", op, f, prev)
		}
		prev, last = f, f
	}
	if last != 3 {
		t.Errorf("drift factor = %g after 100 ops, want capped at 3", last)
	}
}

func TestMarkovBoostsAndReturns(t *testing.T) {
	d, err := New(&Plan{Seed: 42, Injectors: []Injector{
		{Kind: KindMarkov, Boost: 9, PEnter: 0.1, PExit: 0.3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	burst, calm := 0, 0
	for op := 0; op < 10000; op++ {
		switch f := d.Advance().RateFactor; f {
		case 9:
			burst++
		case 1:
			calm++
		default:
			t.Fatalf("unexpected factor %g", f)
		}
	}
	if burst == 0 || calm == 0 {
		t.Errorf("chain never visited both states: burst=%d calm=%d", burst, calm)
	}
	// Stationary burst fraction should be near PEnter/(PEnter+PExit) = 0.25.
	frac := float64(burst) / 10000
	if frac < 0.15 || frac > 0.35 {
		t.Errorf("burst fraction %g far from stationary 0.25", frac)
	}
}

func TestScale(t *testing.T) {
	p := &Plan{Injectors: []Injector{{Kind: KindBurst, Boost: 11, Len: 1, Period: 2}}}
	doubled := p.Scale(2)
	if got := doubled.Injectors[0].Intensity; got != 2 {
		t.Errorf("scaled intensity = %g, want 2", got)
	}
	d, err := New(doubled)
	if err != nil {
		t.Fatal(err)
	}
	if f := d.Advance().RateFactor; f != 21 { // 1 + (11-1)*2
		t.Errorf("boost at intensity 2 = %g, want 21", f)
	}
	// Scale(0) is inert but still a distinct (cache-keyed) plan.
	zero := p.Scale(0)
	if zero.Norm() == nil {
		t.Error("Scale(0) must stay a non-nil plan (distinct cache key)")
	}
	dz, err := New(zero)
	if err != nil {
		t.Fatal(err)
	}
	for op := 0; op < 10; op++ {
		if m := dz.Advance(); !m.Identity() {
			t.Errorf("intensity-0 op %d modulation = %+v, want identity", op, m)
		}
	}
	if p.Injectors[0].Intensity != 0 {
		t.Error("Scale mutated the original plan")
	}
}

func TestPresetsAllValid(t *testing.T) {
	for _, name := range PresetNames() {
		p, err := Preset(name)
		if err != nil {
			t.Errorf("preset %s: %v", name, err)
			continue
		}
		if name == "off" {
			if p != nil {
				t.Error("preset off must be nil")
			}
			continue
		}
		if p.Norm() == nil {
			t.Errorf("preset %s is empty", name)
		}
		if _, err := New(p); err != nil {
			t.Errorf("preset %s does not build: %v", name, err)
		}
		if _, err := Parse([]byte(p.Canonical())); err != nil {
			t.Errorf("preset %s canonical form does not re-parse: %v", name, err)
		}
	}
	if _, err := Preset("no-such"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestModApplyKeepsRatesFinite(t *testing.T) {
	em := errmodel.Model{}
	for _, m := range []Mod{
		{RateFactor: 1e6},
		{RateFactor: 1, TempC: 125},
		{RateFactor: 50, TempC: 85},
	} {
		mod := m.Apply(em)
		for n := 1; n <= 64; n++ {
			if r := mod.ErrorRate(n); math.IsNaN(r) || r < 0 || r > 1 {
				t.Errorf("mod %+v: ErrorRate(%d) = %g out of range", m, n, r)
			}
		}
	}
}
