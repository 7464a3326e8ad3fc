// Package design searches the racetrack-memory design space: given
// reliability, area, and latency requirements, it evaluates every
// combination of stripe geometry, protection scheme, and p-ECC strength
// through the analytic models and returns the feasible set and its Pareto
// frontier. It is the programmatic version of the paper's §6 exploration
// ("trade-off among reliability, area, performance, and energy").
package design

import (
	"fmt"
	"sort"

	"racetrack/hifi/internal/area"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/pecc"
	"racetrack/hifi/internal/shiftctrl"
)

// Point is one evaluated configuration.
type Point struct {
	SegLen   int
	DataBits int
	Scheme   shiftctrl.Scheme
	Strength int

	// Evaluated metrics.
	DUEMTTF    float64 // seconds, at the requirement's intensity
	SDCMTTF    float64 // seconds
	AreaPerBit float64 // F^2 per data bit
	AvgLatency float64 // cycles per shifting access (uniform offsets)
	AvgEnergy  float64 // nJ per shifting access
}

// Label renders a short configuration name.
func (p Point) Label() string {
	return fmt.Sprintf("%dx%d/%s/m%d", p.DataBits/p.SegLen, p.SegLen, p.Scheme, p.Strength)
}

// Requirements bounds the search.
type Requirements struct {
	// MinDUEYears and MinSDCYears are the reliability floors (0 = none).
	MinDUEYears float64
	MinSDCYears float64
	// MaxAreaPerBit caps F^2/bit (0 = none).
	MaxAreaPerBit float64
	// MaxLatency caps average shift cycles per access (0 = none).
	MaxLatency float64
	// Intensity is the shift intensity the memory must sustain (ops/s).
	Intensity float64
	// Stripes is the interleave group width (default 512).
	Stripes int
}

// DefaultRequirements is the paper's operating point: 10-year DUE,
// 1000-year SDC, at the LLC's intensity.
func DefaultRequirements() Requirements {
	return Requirements{
		MinDUEYears: 10,
		MinSDCYears: 1000,
		Intensity:   83e6,
		Stripes:     512,
	}
}

// Space enumerates the candidate configurations.
type Space struct {
	SegLens   []int
	DataBits  []int
	Schemes   []shiftctrl.Scheme
	Strengths []int
}

// DefaultSpace covers the paper's sensitivity range.
func DefaultSpace() Space {
	return Space{
		SegLens:   []int{4, 8, 16, 32},
		DataBits:  []int{32, 64, 128},
		Schemes:   []shiftctrl.Scheme{shiftctrl.SECDED, shiftctrl.PECCO, shiftctrl.PECCSWorst, shiftctrl.PECCSAdaptive},
		Strengths: []int{1, 2},
	}
}

// Evaluate computes the metrics of one configuration analytically.
func Evaluate(segLen, dataBits int, scheme shiftctrl.Scheme, strength int, req Requirements) (Point, error) {
	if dataBits%segLen != 0 {
		return Point{}, fmt.Errorf("design: segLen %d does not divide dataBits %d", segLen, dataBits)
	}
	if strength >= segLen-1 {
		return Point{}, fmt.Errorf("design: strength %d too high for segLen %d", strength, segLen)
	}
	if req.Stripes == 0 {
		req.Stripes = 512
	}
	em := errmodel.Model{}
	timing := shiftctrl.DefaultTiming()
	shiftE := energy.DefaultShift()
	plans := shiftctrl.NewPlans(scheme, em, segLen-1, 2e9, req.Intensity,
		10*mttf.SecondsPerYear, req.Stripes)

	// Uniform-offset access model.
	dist := shiftctrl.UniformDistances(segLen)
	var due, sdc, lat, nrg, accessP float64
	for d := 1; d < segLen; d++ {
		p := dist[d]
		accessP += p
		seq := plans.Plan(d)
		for _, step := range seq {
			s, du := failureRates(scheme, em, step, strength)
			sdc += p * s * float64(req.Stripes)
			due += p * du * float64(req.Stripes)
		}
		lat += p * float64(timing.SeqCycles(seq))
		nrg += p * shiftE.SeqNJ(seq, scheme.StepLimited())
	}

	pt := Point{
		SegLen: segLen, DataBits: dataBits, Scheme: scheme, Strength: strength,
		DUEMTTF:    mttf.FromRate(due, req.Intensity),
		SDCMTTF:    mttf.FromRate(sdc, req.Intensity),
		AvgLatency: lat / accessP,
		AvgEnergy:  nrg / accessP,
	}
	pt.AreaPerBit = areaOf(segLen, dataBits, scheme, strength)
	return pt, nil
}

// failureRates generalizes scheme.FailureRates to higher strengths for
// the correcting schemes: with strength m, errors up to m are corrected,
// m+1 detected (DUE), beyond aliased (SDC).
func failureRates(scheme shiftctrl.Scheme, em errmodel.Model, step, strength int) (sdc, due float64) {
	if scheme.CheckMode() != shiftctrl.CheckCorrect {
		return scheme.FailureRates(em, step)
	}
	due = em.KRate(step, strength+1)
	sdc = em.KRate(step, strength+2)
	return sdc, due
}

// areaOf evaluates the per-bit area of the protected stripe.
func areaOf(segLen, dataBits int, scheme shiftctrl.Scheme, strength int) float64 {
	m := area.Default()
	if scheme.StepLimited() {
		return m.PerBit(area.PECCO(dataBits, segLen, pecc.MustNewO(strength, segLen)))
	}
	return m.PerBit(area.PECC(dataBits, segLen, pecc.MustNew(strength, segLen)))
}

// Search evaluates the whole space and returns the feasible points sorted
// by area then latency, plus the infeasible count.
func Search(space Space, req Requirements) (feasible []Point, rejected int) {
	for _, bits := range space.DataBits {
		for _, segLen := range space.SegLens {
			if bits%segLen != 0 {
				continue
			}
			for _, scheme := range space.Schemes {
				for _, strength := range space.Strengths {
					if strength >= segLen-1 {
						continue
					}
					pt, err := Evaluate(segLen, bits, scheme, strength, req)
					if err != nil {
						continue
					}
					if !meets(pt, req) {
						rejected++
						continue
					}
					feasible = append(feasible, pt)
				}
			}
		}
	}
	sort.Slice(feasible, func(i, j int) bool {
		if feasible[i].AreaPerBit != feasible[j].AreaPerBit {
			return feasible[i].AreaPerBit < feasible[j].AreaPerBit
		}
		return feasible[i].AvgLatency < feasible[j].AvgLatency
	})
	return feasible, rejected
}

func meets(p Point, req Requirements) bool {
	if req.MinDUEYears > 0 && mttf.Years(p.DUEMTTF) < req.MinDUEYears {
		return false
	}
	if req.MinSDCYears > 0 && mttf.Years(p.SDCMTTF) < req.MinSDCYears {
		return false
	}
	if req.MaxAreaPerBit > 0 && p.AreaPerBit > req.MaxAreaPerBit {
		return false
	}
	if req.MaxLatency > 0 && p.AvgLatency > req.MaxLatency {
		return false
	}
	return true
}

// Pareto filters points to the area/latency/DUE-MTTF Pareto frontier
// (lower area, lower latency, higher MTTF).
func Pareto(points []Point) []Point {
	var out []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.AreaPerBit <= p.AreaPerBit && q.AvgLatency <= p.AvgLatency &&
				q.DUEMTTF >= p.DUEMTTF &&
				(q.AreaPerBit < p.AreaPerBit || q.AvgLatency < p.AvgLatency || q.DUEMTTF > p.DUEMTTF) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, p)
		}
	}
	return out
}
