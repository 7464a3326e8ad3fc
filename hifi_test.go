package hifi

import (
	"bytes"
	"math"
	"testing"

	"racetrack/hifi/internal/mttf"
)

func newMem(t *testing.T, cfg Config) *Memory {
	t.Helper()
	m, err := New(16<<10, cfg) // 16KB: 4 groups at defaults
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Config{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(100, Config{}); err == nil {
		t.Error("non-group-multiple capacity accepted")
	}
	if _, err := New(16<<10, Config{SegLen: 3, DomainsPerStripe: 64}); err == nil {
		t.Error("SegLen not dividing DomainsPerStripe accepted")
	}
	if _, err := New(16<<10, Config{SegLen: 2, DomainsPerStripe: 64, Scheme: SchemeSECDED}); err == nil {
		t.Error("SegLen 2 with SECDED accepted")
	}
}

func TestCapacityAndGeometry(t *testing.T) {
	m := newMem(t, Config{})
	if m.Capacity() != 16<<10 {
		t.Errorf("capacity = %d", m.Capacity())
	}
	if m.LineBytes() != 64 {
		t.Errorf("line bytes = %d", m.LineBytes())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newMem(t, Config{ErrorScale: 1e-9})
	line := bytes.Repeat([]byte{0xAB}, 64)
	if err := m.WriteLine(0, line); err != nil {
		t.Fatal(err)
	}
	got, valid, err := m.ReadLine(0)
	if err != nil || !valid {
		t.Fatalf("read: %v valid=%v", err, valid)
	}
	if !bytes.Equal(got, line) {
		t.Error("data mismatch")
	}
}

func TestRoundTripAcrossOffsets(t *testing.T) {
	m := newMem(t, Config{ErrorScale: 1e-9})
	// Lines 0..63 of group 0 live at every segment offset.
	for i := int64(0); i < 64; i++ {
		line := bytes.Repeat([]byte{byte(i)}, 64)
		if err := m.WriteLine(i*64, line); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(63); i >= 0; i-- {
		got, valid, err := m.ReadLine(i * 64)
		if err != nil || !valid {
			t.Fatalf("line %d: %v valid=%v", i, err, valid)
		}
		if got[0] != byte(i) {
			t.Fatalf("line %d returned %#x", i, got[0])
		}
	}
	if !m.Aligned() {
		t.Error("memory should be aligned after clean traffic")
	}
}

func TestAddressValidation(t *testing.T) {
	m := newMem(t, Config{})
	if _, _, err := m.ReadLine(-64); err == nil {
		t.Error("negative address accepted")
	}
	if _, _, err := m.ReadLine(m.Capacity()); err == nil {
		t.Error("out-of-range address accepted")
	}
	if _, _, err := m.ReadLine(13); err == nil {
		t.Error("unaligned address accepted")
	}
	if err := m.WriteLine(0, []byte{1, 2}); err == nil {
		t.Error("short line accepted")
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := newMem(t, Config{ErrorScale: 1e-9})
	line := make([]byte, 64)
	m.WriteLine(7*64, line) // offset 7: requires shifting
	m.ReadLine(0)
	s := m.Stats()
	if s.Writes != 1 || s.Reads != 1 {
		t.Errorf("stats: %+v", s)
	}
	if s.ShiftOps == 0 || s.ShiftCycles == 0 {
		t.Error("no shifts recorded for cross-offset traffic")
	}
}

func TestInjectedErrorsAreHandled(t *testing.T) {
	// At large error scale, corrections must appear while reads keep
	// returning the right data (unless silent/DUE events struck).
	m := newMem(t, Config{ErrorScale: 500, Seed: 3})
	line := bytes.Repeat([]byte{0x5A}, 64)
	m.WriteLine(0, line)
	for i := 0; i < 2000; i++ {
		m.ReadLine(int64(i%64) * 64)
	}
	s := m.Stats()
	if s.Corrections == 0 {
		t.Error("no corrections at 500x error rate")
	}
	got, valid, _ := m.ReadLine(0)
	if valid && s.SilentErrors == 0 && !bytes.Equal(got, line) {
		t.Error("aligned valid read returned wrong data")
	}
}

func TestBaselineSuffersSilently(t *testing.T) {
	// The unprotected baseline at inflated error rates must eventually
	// serve wrong data without noticing: the paper's motivating failure.
	m, err := New(4<<10, Config{Scheme: SchemeBaseline, ErrorScale: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000 && m.Stats().SilentErrors == 0; i++ {
		m.ReadLine(int64(i%64) * 64)
	}
	s := m.Stats()
	if s.SilentErrors == 0 {
		t.Error("baseline never misaligned silently at 2000x rates")
	}
	if s.Corrections != 0 || s.DUEs != 0 {
		t.Errorf("baseline cannot correct or detect: %+v", s)
	}
}

func TestSchemesDiffer(t *testing.T) {
	// p-ECC-O must issue more shift ops than SECDED for the same traffic.
	run := func(s Scheme) Stats {
		m, err := New(4<<10, Config{Scheme: s, ErrorScale: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			m.ReadLine(int64(i*7%64) * 64)
		}
		return m.Stats()
	}
	secded := run(SchemeSECDED)
	pecco := run(SchemePECCO)
	if pecco.ShiftOps <= secded.ShiftOps {
		t.Errorf("p-ECC-O ops %d should exceed SECDED %d", pecco.ShiftOps, secded.ShiftOps)
	}
}

func TestReliabilityOrdering(t *testing.T) {
	const intensity = 50e6
	sdcB, dueB := Reliability(SchemeBaseline, 8, intensity)
	sdcS, dueS := Reliability(SchemeSECDED, 8, intensity)
	if sdcS <= sdcB {
		t.Errorf("SECDED SDC MTTF (%g) should exceed baseline (%g)", sdcS, sdcB)
	}
	if dueB != mttf.FromRate(0, 1) && dueB < 1e30 {
		t.Errorf("baseline DUE MTTF should be infinite, got %g", dueB)
	}
	// Paper headline: SECDED SDC MTTF exceeds 1000 years.
	if YearsMTTF(sdcS) < 1000 {
		t.Errorf("SECDED SDC MTTF = %g years, want > 1000", YearsMTTF(sdcS))
	}
	if dueS <= 0 {
		t.Error("SECDED DUE MTTF must be finite and positive")
	}
}

func TestZeroConfigGetsRecommendedScheme(t *testing.T) {
	m := newMem(t, Config{})
	if m.cfg.Scheme != SchemePECCSAdaptive {
		t.Errorf("zero config scheme = %v", m.cfg.Scheme)
	}
}

func TestDUEInvalidatesLines(t *testing.T) {
	// Force frequent DUEs with an enormous k2 rate and check invalidation
	// bookkeeping: lines disappear rather than serving stale data.
	m, err := New(4<<10, Config{Scheme: SchemeSECDED, ErrorScale: 3e13, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{1}, 64)
	m.WriteLine(0, line)
	for i := 0; i < 3000 && m.Stats().DUEs == 0; i++ {
		m.ReadLine(int64(i%64) * 64)
	}
	if m.Stats().DUEs == 0 {
		t.Skip("no DUE sampled; rates capped")
	}
	if m.Stats().LinesInvalidated == 0 {
		t.Error("DUE recovery did not invalidate lines")
	}
}

func TestBaselineStopsInMiddleSTSDoesNot(t *testing.T) {
	// Sub-threshold shift is what removes stop-in-middle errors (§4.1):
	// the unprotected baseline runs the raw device, STS-only does not.
	stopsInMiddle := func(s Scheme) bool {
		m, err := New(4<<10, Config{Scheme: s, ErrorScale: 2000, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		tape := m.groups[0].tape // 4 KB is a single group
		for i := 0; i < 5000; i++ {
			if _, _, err := m.ReadLine(int64(i%64) * 64); err != nil {
				t.Fatal(err)
			}
			if tape.TrueOffset() == tape.BelievedOffset() && !tape.Aligned() {
				return true
			}
		}
		return false
	}
	if !stopsInMiddle(SchemeBaseline) {
		t.Error("baseline never stopped in the middle at 2000x rates")
	}
	if stopsInMiddle(SchemeSTSOnly) {
		t.Error("STS-only stopped in the middle")
	}
}

func TestShiftPlansPinned(t *testing.T) {
	// Every scheme's shift plan, pinned by the operations and cycles of
	// one read pattern: one operation per shift, p-ECC-O's single steps,
	// and the p-ECC-S worst-case and adaptive plans.
	want := map[Scheme]struct{ ops, cycles uint64 }{
		SchemeBaseline:      {1998, 10954},
		SchemeSTSOnly:       {1998, 10954},
		SchemeSED:           {1998, 10954},
		SchemeSECDED:        {1998, 10954},
		SchemePECCO:         {5527, 22108},
		SchemePECCSWorst:    {2879, 14162},
		SchemePECCSAdaptive: {2754, 13787},
	}
	for s, w := range want {
		m, err := New(64<<10, Config{Scheme: s, ErrorScale: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			if _, _, err := m.ReadLine(int64(i*37%1024) * 64); err != nil {
				t.Fatal(err)
			}
		}
		if st := m.Stats(); st.ShiftOps != w.ops || st.ShiftCycles != w.cycles {
			t.Errorf("%v: ShiftOps/ShiftCycles = %d/%d, want %d/%d",
				s, st.ShiftOps, st.ShiftCycles, w.ops, w.cycles)
		}
	}
}

func TestReliabilityDegenerateSegments(t *testing.T) {
	// A segment of at most one domain never shifts: both MTTFs are
	// infinite, for every scheme.
	for s := SchemeBaseline; s <= SchemePECCSAdaptive; s++ {
		for _, segLen := range []int{-1, 0, 1} {
			sdc, due := Reliability(s, segLen, 50e6)
			if !math.IsInf(sdc, 1) || !math.IsInf(due, 1) {
				t.Errorf("Reliability(%v, %d) = %g, %g; want +Inf, +Inf", s, segLen, sdc, due)
			}
		}
	}
}
