package experiments

import (
	"fmt"

	"racetrack/hifi/internal/area"
	"racetrack/hifi/internal/becc"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/pecc"
	"racetrack/hifi/internal/physics"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/sim"
)

// Aliases keeping the ablation code concise.
const (
	energyRacetrack = energy.Racetrack
	schemeAdaptive  = shiftctrl.PECCSAdaptive
)

// This file holds ablation studies of design choices the paper calls out
// but does not plot: p-ECC protection strength, the drive-current operating
// point, the STS stage decomposition, material choice, and the b-ECC
// refresh-failure argument.

// AblationStrength sweeps the p-ECC correction strength m for the default
// 64-bit, Lseg=8 stripe: reliability gained versus domains and ports paid.
func AblationStrength() Table {
	var em errmodel.Model
	t := Table{
		Title: "Ablation: p-ECC protection strength (64-bit stripe, Lseg=8)",
		Note:  "uncorrectable rate at 4-step shifts; area at the default port model",
		Header: []string{"m", "corrects", "detects", "code_domains", "guard",
			"ports", "uncorrectable_rate", "DUE MTTF @50M ops/s (s)"},
	}
	for m := 0; m <= 3; m++ {
		code := pecc.MustNew(m, 8)
		// Uncorrectable at strength m: errors of magnitude > m.
		var rate float64
		for k := m + 1; k <= m+3; k++ {
			rate += em.KRate(4, k)
		}
		if m == 0 {
			// SED detects but corrects nothing: every detected +-1 is
			// unrecoverable.
			rate = em.K1Rate(4) + em.K2Rate(4)
		}
		t.AddRow(m,
			fmt.Sprintf("+-%d", m),
			fmt.Sprintf("+-%d", m+1),
			code.Length(),
			code.GuardDomains(),
			code.Window(),
			rate,
			mttf.FromRate(rate*512, 50e6))
	}
	return t
}

// AblationDrive sweeps the drive current density around the paper's 2*J0
// operating point, showing why J is chosen there: lower J under-shoots
// (walls fail to escape notches in the scheduled time), higher J
// over-shoots.
func AblationDrive() Table {
	t := Table{
		Title:  "Ablation: drive current density vs raw shift outcome (4-step shifts)",
		Note:   "Monte-Carlo over the physics model, 30k trials per point",
		Header: []string{"J/J0", "correct", "under(-)", "over(+)", "stop-in-middle"},
	}
	base := physics.Default()
	r := sim.NewRNG(0xD21E)
	for _, ratio := range []float64{1.2, 1.5, 2.0, 2.5, 3.0} {
		p := base
		p.ShiftCurrentJ = ratio * base.ThresholdJ0
		var correct, under, over, mid int
		const trials = 30000
		rr := r.Split()
		for i := 0; i < trials; i++ {
			o := physics.SampleShift(p, 4, rr)
			switch {
			case o.Correct():
				correct++
			case o.StopInMiddle():
				mid++
			case o.StepOffset < 0:
				under++
			default:
				over++
			}
		}
		t.AddRow(ratio,
			float64(correct)/trials, float64(under)/trials,
			float64(over)/trials, float64(mid)/trials)
	}
	return t
}

// AblationMaterial compares the in-plane (Table 1) device against a
// perpendicular-anisotropy variant: density gained vs raw error rate paid
// (paper §3.1's closing remark).
func AblationMaterial() Table {
	t := Table{
		Title:  "Ablation: in-plane vs perpendicular material",
		Header: []string{"material", "density_gain", "step_time_ns", "raw_error_rate_4step"},
	}
	r := sim.NewRNG(0x3A7)
	for _, m := range []physics.Material{physics.InPlane, physics.Perpendicular} {
		p := physics.ForMaterial(m)
		bad := 0
		const trials = 50000
		rr := r.Split()
		for i := 0; i < trials; i++ {
			if !physics.SampleShift(p, 4, rr).Correct() {
				bad++
			}
		}
		t.AddRow(m.String(),
			physics.DensityGain(m),
			p.StepTime(p.ShiftCurrentJ)*1e9,
			float64(bad)/trials)
	}
	return t
}

// AblationBECC reproduces the §3.2 numbers: why conventional bit-ECC
// cannot recover position errors — the refresh an uncorrectable detection
// forces is itself likely to be corrupted.
func AblationBECC() Table {
	var em errmodel.Model
	t := Table{
		Title:  "Ablation: b-ECC refresh recovery vs stripe population (SS 3.2)",
		Header: []string{"stripes", "refresh_shift_ops", "P(second error during refresh)", "resulting MTTF if refreshing at 20ms (s)"},
	}
	for _, stripes := range []int{64, 128, 256, 512} {
		ops, pfail := becc.RefreshRecovery(em, 8, stripes)
		// If every detected error forces a refresh and refreshes repeat
		// every 20 ms (the paper's b-ECC MTTF figure), the chance of a
		// corrupted refresh bounds the recovery MTTF.
		m := 20e-3 / pfail
		t.AddRow(stripes, ops, pfail, m)
	}
	return t
}

// AblationSTS decomposes the STS latency budget and shows the conversion
// of stop-in-middle errors into out-of-step ones.
func AblationSTS() Table {
	raw := errmodel.Model{DisableSTS: true}
	sts := errmodel.Model{}
	t := Table{
		Title:  "Ablation: STS on/off (error decomposition per distance)",
		Header: []string{"distance", "raw_stop_in_middle", "raw_total", "post_STS_total", "latency_cycles"},
	}
	tm := shiftctrl.DefaultTiming()
	for n := 1; n <= 7; n++ {
		t.AddRow(n,
			raw.StopInMiddleRate(n),
			raw.ErrorRate(n),
			sts.ErrorRate(n),
			tm.STS.Cycles(n))
	}
	return t
}

// AblationHeadPolicy compares head-management policies for the racetrack
// LLC: keeping the head where the last access left it (lazy, the default)
// versus eagerly returning it to offset 0 after each access (eager), under
// a uniform access-offset model. Eager pays return shifts off the critical
// path but doubles total movement; lazy exploits locality.
func AblationHeadPolicy() Table {
	t := Table{
		Title:  "Ablation: head management policy (uniform offsets, analytic)",
		Header: []string{"seg_len", "lazy_avg_steps", "eager_avg_steps", "eager_critical_path_steps"},
	}
	for _, segLen := range []int{4, 8, 16, 32} {
		n := float64(segLen)
		// Lazy: E|a-b| for uniform a,b = (n^2-1)/(3n).
		lazy := (n*n - 1) / (3 * n)
		// Eager: every access shifts from 0 to its offset and back.
		eagerTotal := 2 * (n - 1) / 2
		eagerCritical := (n - 1) / 2
		t.AddRow(segLen, lazy, eagerTotal, eagerCritical)
	}
	return t
}

// AblationInterleave sweeps the stripes-per-group interleave factor: wider
// groups amortize one shift over more bits but multiply the per-operation
// failure exposure.
func AblationInterleave() Table {
	var em errmodel.Model
	t := Table{
		Title:  "Ablation: stripe-group interleave factor (SECDED, 3-step shifts, 50M ops/s)",
		Header: []string{"stripes_per_group", "bits_per_op", "DUE_rate_per_op", "DUE MTTF (s)"},
	}
	for _, g := range []int{64, 128, 256, 512, 1024} {
		rate := em.K2Rate(3) * float64(g)
		t.AddRow(g, g, rate, mttf.FromRate(rate, 50e6))
	}
	return t
}

// AblationTemperature sweeps the operating temperature: the environmental
// part of the paper's §3.1 variation model widens with heat, shrinking the
// timing margin and inflating every error rate — and with it the safe
// shift distance at a fixed intensity.
func AblationTemperature() Table {
	t := Table{
		Title:  "Ablation: operating temperature (SECDED, 10-year target, 83M ops/s)",
		Header: []string{"temp_C", "k1(4-step)", "k2(4-step)", "safe_distance", "DUE MTTF @ Dsafe (s)"},
	}
	target := 10 * mttf.SecondsPerYear
	for _, temp := range []float64{0.001, 25, 45, 65, 85, 105} {
		em := errmodel.Model{TempC: temp}
		maxRate := mttf.MaxRateFor(target, llcIntensity*llcStripes)
		d := shiftctrl.SafeDistance(em, maxRate, 7)
		m := mttf.FromRate(em.K2Rate(d)*llcStripes, llcIntensity)
		label := temp
		if temp < 1 {
			label = 0
		}
		t.AddRow(label, em.K1Rate(4), em.K2Rate(4), d, m)
	}
	return t
}

// AblationPromo sweeps the shift-aware promotion buffer size (the
// STAG-style structure of [43]) on one capacity-sensitive workload,
// reporting the shift traffic absorbed and the execution-time effect.
func AblationPromo(opts RunOpts) Table {
	opts = opts.withStreams()
	t := Table{
		Title:  "Ablation: shift-aware promotion buffer size (vips)",
		Header: []string{"entries", "shift_ops", "shift_ops_vs_none", "cycles_vs_none"},
	}
	ws := opts.workloads()
	var w = ws[0]
	for _, cand := range ws {
		if cand.Name == "vips" { // skewed reuse: the buffer's target case
			w = cand
		}
	}
	// Entries = 0 is the figures' own p-ECC-S adaptive run on vips: the
	// same fingerprint, so one cached result serves both.
	sizes := []int{0, 8, 16, 32, 64}
	jobs := make([]engine.Job, len(sizes))
	for i, entries := range sizes {
		cfg := opts.config(energyRacetrack, schemeAdaptive)
		cfg.PromoEntries = entries
		jobs[i] = opts.simJob(w, cfg, fmt.Sprintf("%v/%v/promo%d", energyRacetrack, schemeAdaptive, entries))
	}
	rs := opts.runSims(jobs)
	baseOps, baseCycles := float64(rs[0].ShiftOps), float64(rs[0].Cycles)
	for i, r := range rs {
		t.AddRow(sizes[i], r.ShiftOps,
			float64(r.ShiftOps)/baseOps,
			float64(r.Cycles)/baseCycles)
	}
	return t
}

// AblationFig7Area cross-checks the area model against the p-ECC port
// counts actually used by each strength.
func AblationFig7Area() Table {
	m := area.Default()
	t := Table{
		Title:  "Ablation: area cost of p-ECC strength (64-bit stripe, 8 R/W ports)",
		Header: []string{"m", "extra_domains", "extra_reads", "F2_per_bit", "overhead_vs_baseline_%"},
	}
	base := m.PerBit(area.Baseline(64, 8))
	for strength := 0; strength <= 3; strength++ {
		cfg := area.PECC(64, 8, pecc.MustNew(strength, 8))
		v := m.PerBit(cfg)
		t.AddRow(strength, cfg.ExtraDomain, cfg.ExtraReads, v, 100*(v-base)/base)
	}
	return t
}
