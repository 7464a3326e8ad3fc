package experiments

// Fault-injection campaigns: sweep one fault plan across an intensity
// axis and a set of protection schemes, and report how reliability and
// performance degrade as the device leaves the paper's calibrated
// regime. cmd/hifi-chaos drives this; docs/faults.md interprets the
// curves.

import (
	"fmt"
	"math"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/faults"
	"racetrack/hifi/internal/shiftctrl"
)

// ChaosOpts configures one degradation campaign.
type ChaosOpts struct {
	RunOpts
	// Plan is the fault plan at intensity 1. Each sweep point scales it
	// with Plan.Scale, so intensity 0 is the inert control point and the
	// curve is anchored at the nominal device.
	Plan *faults.Plan
	// Intensities are the sweep points, in report order.
	Intensities []float64
	// Schemes are the protection schemes compared at every point.
	Schemes []shiftctrl.Scheme
}

// DefaultChaosOpts is the standard campaign: the mixed preset swept from
// the control point to 4x nominal strength across the paper's main
// protection ladder.
func DefaultChaosOpts(run RunOpts) ChaosOpts {
	plan, err := faults.Preset("mixed")
	if err != nil {
		panic(fmt.Sprintf("experiments: mixed preset: %v", err))
	}
	return ChaosOpts{
		RunOpts:     run,
		Plan:        plan,
		Intensities: []float64{0, 0.5, 1, 2, 4},
		Schemes: []shiftctrl.Scheme{shiftctrl.Baseline, shiftctrl.SED,
			shiftctrl.SECDED, shiftctrl.PECCSAdaptive},
	}
}

// Degradation runs the whole campaign — every (scheme, intensity) pair
// over the full workload roster — as one engine batch, then reports
// three degradation curves: DUE MTTF, SDC MTTF, and execution time
// (normalized per scheme to the first sweep point). MTTFs combine
// across the roster as a series system (failure rates add), so one
// fragile workload dominates the way one weak stripe group would.
func Degradation(o ChaosOpts) []Table {
	if len(o.Intensities) == 0 || len(o.Schemes) == 0 {
		return nil
	}
	o.RunOpts = o.RunOpts.withStreams()
	roster := o.workloads()
	var jobs []engine.Job
	for _, s := range o.Schemes {
		for _, x := range o.Intensities {
			run := o.RunOpts
			run.FaultPlan = o.Plan.Scale(x)
			jobs = append(jobs, run.simJobs(energy.Racetrack, s, false)...)
		}
	}
	all := o.runSims(jobs)

	// point[si][xi] aggregates one (scheme, intensity) roster slice.
	point := make([][]chaosAgg, len(o.Schemes))
	idx := 0
	for si := range o.Schemes {
		point[si] = make([]chaosAgg, len(o.Intensities))
		for xi := range o.Intensities {
			slice := all[idx*len(roster) : (idx+1)*len(roster)]
			idx++
			var dueRate, sdcRate, cycles float64
			for _, r := range slice {
				dueRate += rate(float64(r.DUEMTTF))
				sdcRate += rate(float64(r.SDCMTTF))
				cycles += float64(r.Cycles)
			}
			point[si][xi] = chaosAgg{due: mttfOf(dueRate), sdc: mttfOf(sdcRate), cycles: cycles}
		}
	}

	header := []string{"intensity"}
	for _, s := range o.Schemes {
		header = append(header, fmt.Sprint(s))
	}
	curve := func(title string, metric func(chaosAgg) float64) Table {
		t := Table{Title: title, Header: header,
			Note: fmt.Sprintf("plan: %s", o.Plan.Canonical())}
		for xi, x := range o.Intensities {
			row := []interface{}{x}
			for si := range o.Schemes {
				row = append(row, metric(point[si][xi]))
			}
			t.AddRow(row...)
		}
		return t
	}
	return []Table{
		curve("Chaos: DUE MTTF vs fault intensity (seconds, roster-combined)",
			func(a chaosAgg) float64 { return a.due }),
		curve("Chaos: SDC MTTF vs fault intensity (seconds, roster-combined)",
			func(a chaosAgg) float64 { return a.sdc }),
		curveNorm(o, point, header),
	}
}

// chaosAgg aggregates one (scheme, intensity) roster slice: combined
// MTTFs in seconds (+Inf when no failure mass accrued) and summed
// execution cycles.
type chaosAgg struct {
	due, sdc, cycles float64
}

// curveNorm reports summed execution cycles normalized per scheme to
// the first sweep point — flat rows mean the faults cost reliability,
// not time; rising rows mean the protection path is paying latency to
// absorb them.
func curveNorm(o ChaosOpts, point [][]chaosAgg, header []string) Table {
	t := Table{Title: "Chaos: execution time vs fault intensity (normalized to first point)",
		Header: header, Note: fmt.Sprintf("plan: %s", o.Plan.Canonical())}
	for xi, x := range o.Intensities {
		row := []interface{}{x}
		for si := range o.Schemes {
			base := point[si][0].cycles
			if base == 0 {
				base = 1
			}
			row = append(row, point[si][xi].cycles/base)
		}
		t.AddRow(row...)
	}
	return t
}

// rate converts an MTTF to a failure rate; +Inf MTTF contributes zero.
func rate(mttf float64) float64 {
	if math.IsInf(mttf, 1) || mttf <= 0 {
		return 0
	}
	return 1 / mttf
}

// mttfOf inverts a combined failure rate back to seconds.
func mttfOf(r float64) float64 {
	if r == 0 {
		return math.Inf(1)
	}
	return 1 / r
}

// normalizeToFirstRow divides every numeric column by its first-row
// value, leaving the first (label) column untouched. Rows were rendered
// by AddRow, so re-parse is avoided by rebuilding from the raw ratio.
func (t Table) normalizeToFirstRow() Table {
	if len(t.Rows) == 0 {
		return t
	}
	out := Table{Title: t.Title, Note: t.Note, Header: t.Header}
	var base []float64
	for _, row := range t.Rows {
		cells := []interface{}{row[0]}
		if base == nil {
			base = make([]float64, len(row))
		}
		for i := 1; i < len(row); i++ {
			var v float64
			fmt.Sscan(row[i], &v)
			if base[i] == 0 {
				base[i] = v
			}
			cells = append(cells, v/base[i])
		}
		out.AddRow(cells...)
	}
	return out
}
