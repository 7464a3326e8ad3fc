package hifi

// Integration tests: end-to-end scenarios that cross module boundaries —
// the public Memory over both tape mechanisms, scheme-vs-scheme reliability
// under identical injected faults, the experiments pipeline, and the
// initialization-to-traffic lifecycle.

import (
	"bytes"
	"testing"

	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/pecc"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/sim"
	"racetrack/hifi/internal/stripe"
)

func TestIntegrationPECCOMemoryIsFunctional(t *testing.T) {
	// SchemePECCO now drives real shift-and-write OTapes: every step is
	// one operation.
	mem, err := New(8<<10, Config{Scheme: SchemePECCO, ErrorScale: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	line := bytes.Repeat([]byte{0x42}, 64)
	if err := mem.WriteLine(7*64, line); err != nil { // offset 7
		t.Fatal(err)
	}
	s := mem.Stats()
	if s.ShiftOps != 7 {
		t.Errorf("p-ECC-O write at offset 7 took %d ops, want 7 (1-step each)", s.ShiftOps)
	}
	got, valid, err := mem.ReadLine(7 * 64)
	if err != nil || !valid || !bytes.Equal(got, line) {
		t.Errorf("round trip failed: %v valid=%v", err, valid)
	}
}

func TestIntegrationSchemesUnderSameFaults(t *testing.T) {
	// The same traffic at the same inflated error rate: protection
	// quality must order baseline < SED < SECDED on silent errors.
	silent := func(s Scheme) uint64 {
		mem, err := New(8<<10, Config{Scheme: s, ErrorScale: 800, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4000; i++ {
			mem.ReadLine(int64(i%64) * 64)
		}
		return mem.Stats().SilentErrors
	}
	base := silent(SchemeBaseline)
	secded := silent(SchemeSECDED)
	if base == 0 {
		t.Fatal("baseline produced no silent errors at 800x rates")
	}
	if secded >= base {
		t.Errorf("SECDED silent errors (%d) should be far below baseline (%d)", secded, base)
	}
}

func TestIntegrationSEDConvertsSilentToDetected(t *testing.T) {
	mem, err := New(8<<10, Config{Scheme: SchemeSED, ErrorScale: 800, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		mem.ReadLine(int64(i%64) * 64)
	}
	s := mem.Stats()
	if s.DUEs == 0 {
		t.Error("SED should convert position errors into DUEs")
	}
	if s.Corrections != 0 {
		t.Error("SED cannot correct")
	}
}

func TestIntegrationInitializationThenTraffic(t *testing.T) {
	// Full lifecycle: program-and-test initialization of a stripe, then
	// drive the same code through a Tape's decode path.
	code := pecc.SECDED(8)
	lay := stripe.Layout{
		DataLen: 64, SegLen: 8, GuardLeft: 2, GuardRight: 2,
		PECCLen: code.Length() + 6, PECCPorts: code.Window(),
	}
	st := stripe.New(lay.TotalSlots())
	stats, err := pecc.Initialize(code, st, lay, errmodel.Model{}, pecc.DefaultInitConfig(), sim.NewRNG(1))
	if err != nil || !stats.Initialized {
		t.Fatalf("init failed: %v %+v", err, stats)
	}
	// The initialized pattern decodes cleanly at offset 0 through the
	// standard decoder.
	w := make([]stripe.Bit, code.Window())
	for j := range w {
		w[j] = st.Peek(lay.PECCSlot(j))
	}
	if res := code.Decode(0, w); res.Detected {
		t.Errorf("freshly initialized code does not decode: %+v", res)
	}
}

func TestIntegrationReliabilityConsistency(t *testing.T) {
	// The facade's analytic Reliability and the shiftctrl failure
	// classification must agree on scheme ordering at every intensity.
	for _, ops := range []float64{1e6, 5e7, 3e8} {
		_, dueSECDED := Reliability(SchemeSECDED, 8, ops)
		_, dueWorst := Reliability(SchemePECCSWorst, 8, ops)
		_, duePECCO := Reliability(SchemePECCO, 8, ops)
		if !(duePECCO >= dueWorst && dueWorst >= dueSECDED) {
			t.Errorf("intensity %g: DUE ordering violated: pecco %g, worst %g, secded %g",
				ops, duePECCO, dueWorst, dueSECDED)
		}
	}
}

func TestIntegrationReliabilityMeetsTargets(t *testing.T) {
	// Paper headline: the full architecture meets 1000-year SDC and
	// 10-year DUE at realistic LLC intensity.
	goals := mttf.IBMTargets()
	sdc, due := Reliability(SchemePECCSWorst, 8, 50e6)
	if !goals.Meets(sdc, due) {
		t.Errorf("p-ECC-S worst misses targets: SDC %g y, DUE %g y",
			mttf.Years(sdc), mttf.Years(due))
	}
}

func TestIntegrationExperimentsPipeline(t *testing.T) {
	// Every analytic experiment must render non-empty text and CSV.
	analytic := []string{"fig1", "table2", "fig7", "table3", "fig12",
		"fig13", "fig15", "table5", "abl-strength", "abl-becc", "abl-sts",
		"abl-headpolicy", "abl-interleave", "abl-area"}
	for _, k := range analytic {
		tab, err := experiments.Run(k, experiments.QuickRunOpts())
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: no rows", k)
		}
		if len(tab.String()) == 0 || len(tab.CSV()) == 0 {
			t.Errorf("%s: empty rendering", k)
		}
	}
}

func TestIntegrationTapeVsOTapeAgreement(t *testing.T) {
	// Both tape mechanisms must preserve data across identical access
	// sequences at negligible error rates.
	em := errmodel.Model{RateScale: 1e-9}
	tm := shiftctrl.DefaultTiming()
	tape := shiftctrl.NewTape(pecc.SECDED(8), 64, em, tm, sim.NewRNG(1))
	otape := shiftctrl.NewOTape(pecc.MustNewO(1, 8), 64, em, tm, sim.NewRNG(1))

	tape.Align(0, nil)
	otape.Align(0, nil)
	for seg := 0; seg < 8; seg++ {
		v := stripe.FromBool(seg%3 == 0)
		if err := tape.WriteData(seg*8, v); err != nil {
			t.Fatal(err)
		}
		if err := otape.WriteData(seg*8, v); err != nil {
			t.Fatal(err)
		}
	}
	seq := []int{3, 7, 1, 5, 0, 2, 6, 4, 0}
	for _, target := range seq {
		if err := tape.Align(target, nil); err != nil {
			t.Fatal(err)
		}
		if err := otape.Align(target, nil); err != nil {
			t.Fatal(err)
		}
	}
	tape.Align(0, nil)
	otape.Align(0, nil)
	for seg := 0; seg < 8; seg++ {
		want := stripe.FromBool(seg%3 == 0)
		a, err1 := tape.ReadData(seg * 8)
		b, err2 := otape.ReadData(seg * 8)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != want || b != want {
			t.Errorf("segment %d: tape=%v otape=%v want %v", seg, a, b, want)
		}
	}
	// p-ECC-O pays one op per step; the standard tape one op per move.
	if otape.Counters().Ops <= tape.Counters().Ops {
		t.Error("OTape should issue more operations for the same moves")
	}
}

func TestIntegrationMemoryAcrossGroups(t *testing.T) {
	// Traffic spanning multiple stripe groups keeps per-group head state
	// independent.
	mem, err := New(16<<10, Config{ErrorScale: 1e-9}) // 4 groups
	if err != nil {
		t.Fatal(err)
	}
	groupBytes := int64(64 * 64)
	for g := int64(0); g < 4; g++ {
		line := bytes.Repeat([]byte{byte(g + 1)}, 64)
		// Different offsets in different groups.
		if err := mem.WriteLine(g*groupBytes+g*64, line); err != nil {
			t.Fatal(err)
		}
	}
	for g := int64(3); g >= 0; g-- {
		got, valid, err := mem.ReadLine(g*groupBytes + g*64)
		if err != nil || !valid {
			t.Fatalf("group %d: %v valid=%v", g, err, valid)
		}
		if got[0] != byte(g+1) {
			t.Errorf("group %d returned %#x", g, got[0])
		}
	}
}
