package area

import (
	"math"
	"testing"

	"racetrack/hifi/internal/pecc"
)

func TestStripeF2DomainLimited(t *testing.T) {
	m := Default()
	// Few ports: domain-limited; adding one read port is free.
	a0 := m.StripeF2(71, 0, 2)
	a1 := m.StripeF2(71, 1, 2)
	if a0 != a1 {
		t.Errorf("adding one port in the domain-limited regime changed area: %v -> %v", a0, a1)
	}
}

func TestStripeF2TransistorLimited(t *testing.T) {
	m := Default()
	// Many ports: transistor-limited; each port costs full footprint.
	a20 := m.StripeF2(71, 20, 8)
	a21 := m.StripeF2(71, 21, 8)
	if a21-a20 != m.ReadPortF2 {
		t.Errorf("transistor-limited increment = %v, want %v", a21-a20, m.ReadPortF2)
	}
}

func TestFig7Shape(t *testing.T) {
	m := Default()
	// Paper Fig 7: curves start near 8 F^2/b, rise with added read ports,
	// and sit higher for more R/W ports; the band is roughly 8-16+.
	base := m.Fig7Point(0, 0)
	if base < 6 || base > 10 {
		t.Errorf("Fig7(0,0) = %v, want ~8", base)
	}
	for _, rw := range []int{0, 2, 4, 6, 8} {
		prev := 0.0
		for r := 0; r <= 20; r++ {
			v := m.Fig7Point(r, rw)
			if v < prev {
				t.Fatalf("Fig7 rw=%d not monotone at r=%d", rw, r)
			}
			prev = v
		}
	}
	// More R/W ports never reduce area.
	for r := 0; r <= 20; r += 5 {
		if m.Fig7Point(r, 8) < m.Fig7Point(r, 0) {
			t.Errorf("Fig7 at r=%d: RW=8 below RW=0", r)
		}
	}
	// Transistor-limited tail reaches well above the base.
	if m.Fig7Point(20, 8) < 12 {
		t.Errorf("Fig7(20,8) = %v, want > 12", m.Fig7Point(20, 8))
	}
}

func TestPerDataBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PerDataBit(0,...) did not panic")
		}
	}()
	Default().PerDataBit(0, 10, 0, 0)
}

func TestCellOverheadMatchesTable5(t *testing.T) {
	// p-ECC at the default 8x8 64-bit stripe: area-accounting code length
	// Lseg-1+2m = 9 plus 2m = 2 guards -> 11 extra domains = 17.2%
	// (paper Table 5 reports 17.6%).
	got := PECC(64, 8, pecc.SECDED(8)).CellOverhead()
	if math.Abs(got-0.176) > 0.01 {
		t.Errorf("p-ECC cell overhead = %.3f, want ~0.176 (Table 5)", got)
	}

	// p-ECC-O: 2(m+1) domains per end + 2m guards = 10 extra = 15.6%
	// (paper: 15.7%).
	got = PECCO(64, 8, pecc.MustNewO(1, 8)).CellOverhead()
	if math.Abs(got-0.157) > 0.01 {
		t.Errorf("p-ECC-O cell overhead = %.3f, want ~0.157 (Table 5)", got)
	}
}

func TestPECCOWinsForLongSegments(t *testing.T) {
	// Paper Fig 13: p-ECC-O becomes more area-efficient at Lseg >= 16.
	m := Default()
	perBit := func(segLen int, o bool) float64 {
		if o {
			return m.PerBit(PECCO(64, segLen, pecc.MustNewO(1, segLen)))
		}
		return m.PerBit(PECC(64, segLen, pecc.SECDED(segLen)))
	}
	if perBit(32, true) >= perBit(32, false) {
		t.Errorf("Lseg=32: p-ECC-O (%.2f) should beat p-ECC (%.2f)",
			perBit(32, true), perBit(32, false))
	}
	// At short segments the difference is small or reversed (paper:
	// "trivial for both" below Lseg 8); assert p-ECC is not drastically
	// worse there.
	if perBit(4, false) > perBit(4, true)*1.2 {
		t.Errorf("Lseg=4: p-ECC (%.2f) drastically worse than p-ECC-O (%.2f)",
			perBit(4, false), perBit(4, true))
	}
}

func TestBaselineConfig(t *testing.T) {
	c := Baseline(64, 8)
	if c.Domains() != 71 {
		t.Errorf("baseline domains = %d, want 71 (64 data + 7 overhead)", c.Domains())
	}
	r, w := c.Ports()
	if r != 0 || w != 8 {
		t.Errorf("baseline ports = %d reads, %d rws; want 0, 8", r, w)
	}
	if c.CellOverhead() != 0 {
		t.Error("baseline cell overhead should be 0")
	}
}

func TestControllerAreas(t *testing.T) {
	ca := Table5Controller()
	if ca.STS != 1.94 || ca.PECC != 54.0 || ca.PECCSAdaptive != 109.4 {
		t.Error("controller areas don't match Table 5")
	}
	// The adaptive controller is the most complex.
	if ca.PECCSAdaptive <= ca.PECCSWorst {
		t.Error("adaptive controller should be larger than worst-case")
	}
}
