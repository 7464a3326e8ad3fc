package memsim

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/faults"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/trace"
)

// fingerprint is the projection Config.Fingerprint once marshalled
// through encoding/json. Field order is fixed by the declaration.
type fingerprint struct {
	Schema   int     `json:"schema"`
	Cores    int     `json:"cores"`
	ClockHz  float64 `json:"clock_hz"`
	Tech     string  `json:"tech"`
	Scheme   string  `json:"scheme"`
	Ideal    bool    `json:"ideal"`
	Geometry struct {
		StripesPerGroup int `json:"stripes_per_group"`
		DataBits        int `json:"data_bits"`
		SegLen          int `json:"seg_len"`
		LineBytes       int `json:"line_bytes"`
	} `json:"geometry"`
	Accesses  int              `json:"accesses_per_core"`
	Warmup    int              `json:"warmup_accesses_per_core"`
	Seed      uint64           `json:"seed"`
	TargetDUE float64          `json:"target_due"`
	L1        int64            `json:"l1_capacity"`
	L2        int64            `json:"l2_capacity"`
	L3        int64            `json:"l3_capacity"`
	L1W       int              `json:"l1_ways"`
	L2W       int              `json:"l2_ways"`
	L3W       int              `json:"l3_ways"`
	Eager     bool             `json:"eager_head"`
	Promo     int              `json:"promo_entries"`
	Workload  trace.Workload   `json:"workload"`
	Mix       []trace.Workload `json:"mix,omitempty"`
	Faults    string           `json:"faults,omitempty"`
}

// referenceFingerprint is the reflective encoder Config.Fingerprint
// replaced. Every key the appender writes must equal its bytes, so
// that caches filled by earlier builds keep their addresses.
func referenceFingerprint(c Config, w trace.Workload) string {
	c.fillDefaults()
	var fp fingerprint
	fp.Schema = FingerprintSchema
	fp.Cores = c.Cores
	fp.ClockHz = c.ClockHz
	fp.Tech = fmt.Sprint(c.Tech)
	fp.Scheme = fmt.Sprint(c.Scheme)
	fp.Ideal = c.Ideal
	fp.Geometry.StripesPerGroup = c.Geometry.StripesPerGroup
	fp.Geometry.DataBits = c.Geometry.DataBits
	fp.Geometry.SegLen = c.Geometry.SegLen
	fp.Geometry.LineBytes = c.Geometry.LineBytes
	fp.Accesses = c.AccessesPerCore
	fp.Warmup = c.WarmupAccessesPerCore
	fp.Seed = c.Seed
	fp.TargetDUE = c.TargetDUE
	fp.L1, fp.L2, fp.L3 = c.L1Capacity, c.L2Capacity, c.L3Capacity
	fp.L1W, fp.L2W, fp.L3W = c.L1Ways, c.L2Ways, c.L3Ways
	fp.Eager = c.EagerHead
	fp.Promo = c.PromoEntries
	fp.Workload = w
	fp.Mix = c.Mix
	fp.Faults = c.FaultPlan.Canonical()
	b, err := json.Marshal(fp)
	if err != nil {
		panic(fmt.Sprintf("memsim: Fingerprint: %v", err))
	}
	return "memsim|" + string(b)
}

// fpCase is one fuzz input: a workload, a config, the number of Mix
// workloads (mod 5) and a fault preset (an index into
// faults.PresetNames).
type fpCase struct {
	w           trace.Workload
	c           Config
	mix, preset uint8
}

// rosterCase is the config the experiments give workload w under tech
// and scheme, at full size or scaled as their -scaled mode scales it.
func rosterCase(w trace.Workload, tech energy.Tech, s shiftctrl.Scheme, scaled bool) fpCase {
	c := DefaultConfig(tech, s)
	if scaled {
		c.AccessesPerCore = 1000
		c.L1Capacity, c.L2Capacity = 2<<10, 8<<10
		c.L3Capacity = map[energy.Tech]int64{energy.SRAM: 32 << 10, energy.STTRAM: 256 << 10, energy.Racetrack: 1 << 20}[tech]
		w.WorkingSetB = max(w.WorkingSetB>>7, 12<<10)
	}
	return fpCase{w: w, c: c}
}

// add adds the case to FuzzFingerprint's seed corpus, in its parameter
// order.
func (k fpCase) add(f *testing.F) {
	w, c := k.w, k.c
	f.Add(w.Name, w.CapacitySensitive, w.WorkingSetB, w.ZipfS, w.StreamFrac, w.WriteFrac,
		w.GapMean, w.LatencySensitive, w.PhasePeriod, w.PhaseGapMean,
		int(c.Tech), int(c.Scheme), c.Ideal, c.Cores, c.ClockHz,
		c.Geometry.StripesPerGroup, c.Geometry.DataBits, c.Geometry.SegLen, c.Geometry.LineBytes,
		c.AccessesPerCore, c.WarmupAccessesPerCore, c.Seed, c.TargetDUE,
		c.L1Capacity, c.L2Capacity, c.L3Capacity, c.L1Ways, c.L2Ways, c.L3Ways,
		c.EagerHead, c.PromoEntries, k.mix, k.preset)
}

// fingerprintOrPanic returns fp(c, w), or the value it panicked with.
func fingerprintOrPanic(fp func(Config, trace.Workload) string, c Config, w trace.Workload) (key string, panicked any) {
	defer func() { panicked = recover() }()
	return fp(c, w), nil
}

// rosterCases is every config the experiments run, and then some: the
// twelve roster workloads, scaled and full size, under every technology
// × scheme × fault preset.
func rosterCases() []fpCase {
	var cases []fpCase
	for _, scaled := range []bool{true, false} {
		for _, w := range trace.PARSEC() {
			for _, tech := range []energy.Tech{energy.SRAM, energy.STTRAM, energy.Racetrack} {
				for s := shiftctrl.Baseline; s <= shiftctrl.PECCSAdaptive; s++ {
					for p := range faults.PresetNames() {
						k := rosterCase(w, tech, s, scaled)
						k.preset = uint8(p)
						cases = append(cases, k)
					}
				}
			}
		}
	}
	return cases
}

// Every roster key is the reflective encoder's bytes, so caches and
// digests made before the appender keep their addresses.
func TestFingerprintRosterMatchesReference(t *testing.T) {
	presets := faults.PresetNames()
	cases := rosterCases()
	for _, k := range cases {
		plan, err := faults.Preset(presets[k.preset])
		if err != nil {
			t.Fatal(err)
		}
		k.c.FaultPlan = plan
		if got, want := k.c.Fingerprint(k.w), referenceFingerprint(k.c, k.w); got != want {
			t.Fatalf("key differs from the reflective encoder's:\n got %s\nwant %s", got, want)
		}
	}
	if len(cases) != 2*12*3*7*len(presets) {
		t.Errorf("%d roster cases", len(cases))
	}
}

// FuzzFingerprint holds Config.Fingerprint to the reflective encoder it
// replaced. For any workload name (quotes, <>&, control bytes, invalid
// UTF-8), any float, int, seed and access count, any Mix and any preset
// fault plan, the key is the reference's bytes; a NaN or infinite float
// panics, with the reference's message. The seeds are the roster cases
// with technology, scheme and preset rotating through every value,
// then names and floats at the encoding's edges; the whole roster
// product is TestFingerprintRosterMatchesReference, since as seeds its
// baseline pass alone outlasts a 10 s fuzzing run.
func FuzzFingerprint(f *testing.F) {
	presets := faults.PresetNames()
	i := 0
	for _, scaled := range []bool{true, false} {
		for _, w := range trace.PARSEC() {
			k := rosterCase(w, energy.Tech(i%3), shiftctrl.Scheme(i%7), scaled)
			k.preset = uint8(i % len(presets))
			k.add(f)
			i++
		}
	}
	base := rosterCase(trace.PARSEC()[0], energy.Racetrack, shiftctrl.PECCSAdaptive, true)
	for _, name := range []string{`a"b`, `back\slash`, "<x>&y", "tab\tnul\x00del\x7f", "bad\xffutf8", "sep\u2028", "é"} {
		k := base
		k.w.Name = name
		k.mix = 2
		k.add(f)
	}
	for _, x := range []float64{
		1e-7, 9.999999e-7, 1e-6, 123456.789, 9.99999e20, 1e21, 1e22, -1e-7, -1e22,
		0, math.Copysign(0, -1), 5e-324, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		k := base
		k.w.ZipfS, k.c.TargetDUE = x, x
		k.add(f)
	}
	k := base
	k.w.WorkingSetB, k.c.Seed, k.c.Cores, k.c.WarmupAccessesPerCore = math.MinInt64, math.MaxUint64, -3, math.MaxInt
	k.mix, k.preset = 4, 255
	k.add(f)

	f.Fuzz(func(t *testing.T,
		name string, capSens bool, wsB int64, zipf, stream, write, gap float64,
		latSens bool, phase int, phaseGap float64,
		tech, scheme int, ideal bool, cores int, clock float64,
		stripes, dataBits, segLen, lineBytes int,
		accesses, warmup int, seed uint64, targetDUE float64,
		l1, l2, l3 int64, l1w, l2w, l3w int, eager bool, promo int, mix, preset uint8,
	) {
		w := trace.Workload{
			Name: name, CapacitySensitive: capSens, WorkingSetB: wsB, ZipfS: zipf,
			StreamFrac: stream, WriteFrac: write, GapMean: gap, LatencySensitive: latSens,
			PhasePeriod: phase, PhaseGapMean: phaseGap,
		}
		c := Config{
			Cores: cores, ClockHz: clock, Tech: energy.Tech(tech), Scheme: shiftctrl.Scheme(scheme),
			Ideal:           ideal,
			Geometry:        cache.RTMGeometry{StripesPerGroup: stripes, DataBits: dataBits, SegLen: segLen, LineBytes: lineBytes},
			AccessesPerCore: accesses, WarmupAccessesPerCore: warmup, Seed: seed, TargetDUE: targetDUE,
			L1Capacity: l1, L2Capacity: l2, L3Capacity: l3, L1Ways: l1w, L2Ways: l2w, L3Ways: l3w,
			EagerHead: eager, PromoEntries: promo,
		}
		roster := trace.PARSEC()
		for i := 0; i < int(mix%5); i++ {
			m := w
			if i > 0 {
				m = roster[(int(mix)+i)%len(roster)]
			}
			c.Mix = append(c.Mix, m)
		}
		plan, err := faults.Preset(presets[int(preset)%len(presets)])
		if err != nil {
			t.Fatal(err)
		}
		c.FaultPlan = plan

		want, wantPanic := fingerprintOrPanic(referenceFingerprint, c, w)
		got, gotPanic := fingerprintOrPanic(Config.Fingerprint, c, w)
		if fmt.Sprint(gotPanic) != fmt.Sprint(wantPanic) {
			t.Fatalf("panic %v, reference panic %v", gotPanic, wantPanic)
		}
		finite := true
		for _, x := range []float64{zipf, stream, write, gap, phaseGap, clock, targetDUE} {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
		if !finite && gotPanic == nil {
			t.Fatalf("a non-finite float fingerprinted as %s", got)
		}
		if got != want {
			t.Fatalf("key differs from the reflective encoder's:\n got %s\nwant %s", got, want)
		}
	})
}

// A roster key costs at most two allocations: the key string, and the
// buffer should one outgrow the stack.
func TestFingerprintAllocs(t *testing.T) {
	k := rosterCase(trace.PARSEC()[0], energy.Racetrack, shiftctrl.PECCSAdaptive, true)
	if n := testing.AllocsPerRun(100, func() { sinkKey = k.c.Fingerprint(k.w) }); n > 2 {
		t.Errorf("Fingerprint allocates %v times a call, want at most 2", n)
	}
}

var sinkKey string

func BenchmarkFingerprint(b *testing.B) {
	k := rosterCase(trace.PARSEC()[0], energy.Racetrack, shiftctrl.PECCSAdaptive, true)
	for _, enc := range []struct {
		name string
		fp   func(Config, trace.Workload) string
	}{{"append", Config.Fingerprint}, {"reflect", referenceFingerprint}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkKey = enc.fp(k.c, k.w)
			}
		})
	}
}
