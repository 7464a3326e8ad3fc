package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"

	"racetrack/hifi/internal/area"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/pecc"
	"racetrack/hifi/internal/physics"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/sim"
)

// llcIntensity is the peak access intensity of the evaluated 128MB LLC
// (paper §5.2: up to 83M accesses per second).
const llcIntensity = 83e6

// llcStripes is the stripe-group size of the paper's data mapping.
const llcStripes = 512

// Fig1 regenerates paper Fig. 1: MTTF of a racetrack LLC against the
// per-stripe position error rate, swept from 1e-20 to 1e-2.
func Fig1() Table {
	t := Table{
		Title:  "Fig 1: MTTF of a racetrack LLC vs per-stripe position error rate",
		Note:   fmt.Sprintf("intensity %.0fM acc/s, %d stripes per access", llcIntensity/1e6, llcStripes),
		Header: []string{"error_rate", "mttf_s", "mttf_readable"},
	}
	for exp := -20; exp <= -2; exp++ {
		rate := math.Pow(10, float64(exp))
		m := mttf.FromRate(rate, llcIntensity*llcStripes)
		t.AddRow(rate, m, readableDuration(m))
	}
	return t
}

// readableDuration renders seconds on the Fig. 1 axis scale.
func readableDuration(s float64) string {
	switch {
	case math.IsInf(s, 1):
		return "inf"
	case s >= mttf.SecondsPerYear:
		return fmt.Sprintf("%.3g years", s/mttf.SecondsPerYear)
	case s >= 86400:
		return fmt.Sprintf("%.3g days", s/86400)
	case s >= 60:
		return fmt.Sprintf("%.3g min", s/60)
	case s >= 1:
		return fmt.Sprintf("%.3g s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.3g ms", s*1e3)
	default:
		return fmt.Sprintf("%.3g us", s*1e6)
	}
}

// Fig4 regenerates paper Fig. 4: the probability distribution of position
// errors for 1-, 4- and 7-step shifts of the raw (pre-STS) device, from
// Monte-Carlo over the physical timing model plus the analytic Gaussian
// tail for magnitudes beyond Monte-Carlo reach.
func Fig4(ctx context.Context, trials int, seed uint64) Table {
	if ctx == nil {
		ctx = context.Background()
	}
	if trials <= 0 {
		trials = 200_000
	}
	p := physics.Default()
	r := sim.NewRNG(seed ^ 0xf16a4)
	t := Table{
		Title:  "Fig 4: PDF of position errors (pre-STS)",
		Note:   fmt.Sprintf("%d Monte-Carlo trials per distance; far-tail values are analytic (log10 rate)", trials),
		Header: []string{"bin", "1-step", "4-step", "7-step"},
	}
	dists := []int{1, 4, 7}
	pdfs := make([]map[physics.PDFBin]float64, len(dists))
	for i, n := range dists {
		pdfs[i] = physics.ErrorPDFCtx(ctx, p, n, trials, r.Split())
	}
	bins := []struct {
		label string
		bin   physics.PDFBin
	}{
		{"(-2,-1) mid", physics.PDFBin{StepOffset: -2, InNotch: false}},
		{"-1 step", physics.PDFBin{StepOffset: -1, InNotch: true}},
		{"(-1,0) mid", physics.PDFBin{StepOffset: -1, InNotch: false}},
		{"0 (correct)", physics.PDFBin{StepOffset: 0, InNotch: true}},
		{"(0,+1) mid", physics.PDFBin{StepOffset: 0, InNotch: false}},
		{"+1 step", physics.PDFBin{StepOffset: 1, InNotch: true}},
		{"(+1,+2) mid", physics.PDFBin{StepOffset: 1, InNotch: false}},
	}
	for _, b := range bins {
		row := []interface{}{b.label}
		for i := range dists {
			row = append(row, pdfs[i][b.bin])
		}
		t.AddRow(row...)
	}
	// Analytic far tail: log10 P(|error| >= 2 steps).
	row := []interface{}{"log10 P(|e|>=2) analytic"}
	for _, n := range dists {
		row = append(row, physics.TailRateLog10(p, n, 2, r.Split()))
	}
	t.AddRow(row...)
	return t
}

// Table2 regenerates paper Table 2: post-STS out-of-step error rates per
// shift distance.
func Table2() Table {
	var em errmodel.Model
	t := Table{
		Title:  "Table 2: probability of out-of-step position error (after STS)",
		Header: []string{"distance", "k=1", "k=2", "k>=3"},
	}
	for n := 1; n <= 7; n++ {
		t.AddRow(n, em.K1Rate(n), em.K2Rate(n), em.K3PlusRate(n))
	}
	return t
}

// Fig7 regenerates paper Fig. 7: area per data bit of a 64-bit stripe as
// read-only ports are added, for different existing R/W port counts.
func Fig7() Table {
	m := area.Default()
	t := Table{
		Title:  "Fig 7: overhead of adding read ports (F^2 per data bit, 64-bit stripe)",
		Header: []string{"extra_read_ports", "RW=0", "RW=2", "RW=4", "RW=6", "RW=8"},
	}
	for r := 0; r <= 20; r++ {
		t.AddRow(r, m.Fig7Point(r, 0), m.Fig7Point(r, 2), m.Fig7Point(r, 4),
			m.Fig7Point(r, 6), m.Fig7Point(r, 8))
	}
	return t
}

// Table3 regenerates paper Table 3: (a) safe distance vs shift intensity
// and (b) safe shift sequences for a 7-step request with their interval
// thresholds and latencies.
func Table3() Table {
	var em errmodel.Model
	target := 10 * mttf.SecondsPerYear
	t := Table{
		Title:  "Table 3: (a) safe distance vs intensity; (b) safe sequences of a 7-step shift",
		Header: []string{"part", "key", "value", "detail"},
	}
	for n := 1; n <= 7; n++ {
		t.AddRow("a", fmt.Sprintf("Dsafe=%d", n), em.K2Rate(n),
			fmt.Sprintf("max intensity %s ops/s",
				engineering(shiftctrl.SafeIntensity(em, n, target, llcStripes))))
	}
	p := shiftctrl.NewPlanner(em, shiftctrl.DefaultTiming(), 7, 7)
	a := shiftctrl.NewAdapter(p, 2e9, target, llcStripes)
	for _, row := range a.Table(7) {
		t.AddRow("b", fmt.Sprintf("interval>=%d", row.MinInterval),
			fmt.Sprintf("%v", row.Seq), fmt.Sprintf("latency %d cycles", row.Cycles))
	}
	return t
}

// engineering formats a value with an SI-like suffix as the paper's Table 3
// does (4.53G, 518M, ...).
func engineering(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v >= 1e9:
		return fmt.Sprintf("%.3gG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3gM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3gK", v/1e3)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// stripeConfigs lists the Fig 12/13/15 sensitivity configurations:
// segment-number x segment-length for 32-, 64- and 128-bit stripes.
func stripeConfigs() []struct{ Segs, SegLen, Bits int } {
	var out []struct{ Segs, SegLen, Bits int }
	for _, bits := range []int{32, 64, 128} {
		for segLen := 2; segLen <= bits/2; segLen *= 2 {
			out = append(out, struct{ Segs, SegLen, Bits int }{bits / segLen, segLen, bits})
		}
	}
	return out
}

// Fig12 regenerates paper Fig. 12: DUE MTTF sensitivity to the stripe
// configuration for p-ECC-S adaptive and p-ECC-O, at the LLC's worst-case
// intensity.
func Fig12() Table {
	var em errmodel.Model
	target := 10 * mttf.SecondsPerYear
	t := Table{
		Title:  "Fig 12: DUE MTTF sensitivity (segment number x segment length)",
		Note:   "uniform access offsets; worst-case LLC intensity",
		Header: []string{"config", "bits", "p-ECC-S adaptive (s)", "p-ECC-O (s)", "meets 10y"},
	}
	for _, c := range stripeConfigs() {
		segLen := c.SegLen
		// p-ECC-S adaptive at worst-case intensity behaves like the
		// worst-case plan; expected uncorrectable rate per access:
		plans := shiftctrl.NewPlans(shiftctrl.PECCSWorst, em, max(segLen-1, 1), 2e9,
			llcIntensity, target, llcStripes)
		dist := shiftctrl.UniformDistances(segLen)
		var rateS float64
		for d := 1; d < segLen; d++ {
			rateS += dist[d] * shiftctrl.SeqUncorrectableRate(em, plans.Plan(d)) * llcStripes
		}
		mttfS := mttf.FromRate(rateS, llcIntensity)
		// p-ECC-O: every step is its own 1-step operation.
		var rateO float64
		for d := 1; d < segLen; d++ {
			rateO += dist[d] * float64(d) * em.K2Rate(1) * llcStripes
		}
		mttfO := mttf.FromRate(rateO, llcIntensity)
		meets := "no"
		if mttfS >= target && mttfO >= target {
			meets = "yes"
		}
		t.AddRow(fmt.Sprintf("%dx%d", c.Segs, segLen), c.Bits, mttfS, mttfO, meets)
	}
	return t
}

// Fig13 regenerates paper Fig. 13: average area per data bit across stripe
// configurations for the baseline, p-ECC-S adaptive, and p-ECC-O.
func Fig13() Table {
	m := area.Default()
	t := Table{
		Title:  "Fig 13: area per data bit sensitivity (F^2/b)",
		Header: []string{"config", "bits", "baseline", "p-ECC-S adaptive", "p-ECC-O"},
	}
	for _, c := range stripeConfigs() {
		base := m.PerBit(area.Baseline(c.Bits, c.SegLen))
		var sVal, oVal float64
		if c.SegLen >= 3 { // SECDED needs m=1 < segLen-1
			sVal = m.PerBit(area.PECC(c.Bits, c.SegLen, pecc.SECDED(c.SegLen)))
			oVal = m.PerBit(area.PECCO(c.Bits, c.SegLen, pecc.MustNewO(1, c.SegLen)))
		} else {
			// Lseg=2 cannot host SECDED p-ECC in-region; p-ECC-O still
			// works (overhead region is segment-length independent).
			oVal = m.PerBit(area.PECCO(c.Bits, c.SegLen, pecc.MustNewO(1, 4)))
			sVal = oVal
		}
		t.AddRow(fmt.Sprintf("%dx%d", c.Segs, c.SegLen), c.Bits, base, sVal, oVal)
	}
	return t
}

// Fig15 regenerates paper Fig. 15: average shift latency per access across
// stripe configurations, normalized to the unconstrained single-operation
// latency, for p-ECC-S adaptive and p-ECC-O.
func Fig15() Table {
	var em errmodel.Model
	timing := shiftctrl.DefaultTiming()
	target := 10 * mttf.SecondsPerYear
	t := Table{
		Title:  "Fig 15: average shift latency sensitivity (normalized to unconstrained)",
		Header: []string{"config", "bits", "p-ECC-S adaptive", "p-ECC-O"},
	}
	for _, c := range stripeConfigs() {
		segLen := c.SegLen
		dist := shiftctrl.UniformDistances(segLen)
		maxDist := max(segLen-1, 1)
		adaptive := shiftctrl.NewPlans(shiftctrl.PECCSAdaptive, em, maxDist, 2e9, llcIntensity, target, llcStripes)
		pecco := shiftctrl.NewPlans(shiftctrl.PECCO, em, maxDist, 2e9, llcIntensity, target, llcStripes)
		// Typical interval: LLC at moderate load (10% of worst case).
		intervalF := 10 * 2e9 / float64(llcIntensity)
		interval := uint64(intervalF)
		var base, lats, lato float64
		for d := 1; d < segLen; d++ {
			base += dist[d] * float64(timing.SeqCycles([]int{d}))
			lats += dist[d] * float64(timing.SeqCycles(adaptive.Seq(d, interval)))
			lato += dist[d] * float64(timing.SeqCycles(pecco.Plan(d)))
		}
		t.AddRow(fmt.Sprintf("%dx%d", c.Segs, segLen), c.Bits, lats/base, lato/base)
	}
	return t
}

// Table5 regenerates paper Table 5: design overhead of the protection
// mechanisms — detection/correction time and energy, cell area overhead,
// and controller area.
func Table5() Table {
	t := Table{
		Title: "Table 5: design overhead of position error protection",
		Header: []string{"approach", "detect_ns", "detect_pJ", "correct_ns",
			"correct_pJ", "cell_%", "controller_um2"},
	}
	tbl := energy.Table5()
	ctrl := area.Table5Controller()
	code := pecc.SECDED(8)
	oc := pecc.MustNewO(1, 8)
	peccCell := 100 * float64(code.AreaLength()+code.GuardDomains()) / 64
	peccoCell := 100 * float64(oc.ExtraDomains()) / 64

	rows := []struct {
		name string
		cell float64
		ctrl float64
	}{
		{"sts", math.NaN(), ctrl.STS},
		{"p-ecc", peccCell, ctrl.PECC},
		{"p-ecc-o", peccoCell, ctrl.PECCO},
		{"p-ecc-s worst", peccCell, ctrl.PECCSWorst},
		{"p-ecc-s adaptive", peccCell, ctrl.PECCSAdaptive},
	}
	// Keep deterministic order.
	sort.SliceStable(rows, func(i, j int) bool { return i < j })
	for _, r := range rows {
		o := tbl[r.name]
		cell := "N/A"
		if !math.IsNaN(r.cell) {
			cell = fmt.Sprintf("%.1f", r.cell)
		}
		t.AddRow(r.name, o.DetectNS, o.DetectPJ, o.CorrectNS, o.CorrectPJ, cell, r.ctrl)
	}
	return t
}
