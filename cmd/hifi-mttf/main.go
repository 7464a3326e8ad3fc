// Command hifi-mttf is a reliability calculator for racetrack-memory shift
// operations: MTTF from error rates and intensities, safe shift distances,
// and the adaptive shift-sequence table (paper Table 3). It simulates
// nothing, so it takes only its own flags and -v/-q.
//
// Usage:
//
//	hifi-mttf                        # defaults: Table 3 reproduction
//	hifi-mttf -rate 1e-19 -intensity 83e6
//	hifi-mttf -distance 7 -table    # adapter table for a 7-step shift
//	hifi-mttf -seglen 8 -intensity 50e6 -stripes 256
//
// A value the model cannot take (a -distance outside the segment, a
// -seglen below 2, a non-positive -intensity, -stripes or -target-years,
// a negative -rate) exits 2 with a message naming the flag.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry/log"
)

// params are the parsed flags.
type params struct {
	rate, intensity, targetY  float64
	stripes, distance, segLen int
	table                     bool
}

func main() {
	var p params
	flag.Float64Var(&p.rate, "rate", 0, "per-stripe per-shift error rate (0 = use device model)")
	flag.Float64Var(&p.intensity, "intensity", 83e6, "shift intensity, operations/second")
	flag.IntVar(&p.stripes, "stripes", 512, "stripes shifting together per operation")
	flag.Float64Var(&p.targetY, "target-years", 10, "DUE MTTF target in years")
	flag.IntVar(&p.distance, "distance", 7, "shift distance for the sequence table")
	flag.IntVar(&p.segLen, "seglen", 8, "segment length (max distance + 1)")
	flag.BoolVar(&p.table, "table", false, "print the adaptive sequence table")
	logLevel := cliutil.AddLogLevel(flag.CommandLine)
	flag.Parse()
	logLevel.Apply()
	if err := p.check(); err != nil {
		log.Errorf("hifi-mttf: %v", err)
		os.Exit(2)
	}

	target := p.targetY * mttf.SecondsPerYear
	var em errmodel.Model

	if p.rate > 0 {
		m := mttf.FromRate(p.rate, p.intensity*float64(p.stripes))
		fmt.Printf("per-stripe rate %.3g at %.3g ops/s x %d stripes:\n", p.rate, p.intensity, p.stripes)
		fmt.Printf("  MTTF = %.3g s = %.3g years (%.0f FIT)\n", m, mttf.Years(m), mttf.ToFIT(m))
		fmt.Printf("  meets %g-year target: %v\n", p.targetY, m >= target)
		return
	}

	fmt.Printf("device model (Table 2 rates), %d-stripe groups, %.3g ops/s, %g-year DUE target\n\n",
		p.stripes, p.intensity, p.targetY)

	fmt.Println("safe distance vs intensity (Table 3a):")
	for n := 1; n < p.segLen; n++ {
		fmt.Printf("  Dsafe=%d  k2=%.3g  max intensity %.3g ops/s\n",
			n, em.K2Rate(n), shiftctrl.SafeIntensity(em, n, target, p.stripes))
	}
	maxRate := mttf.MaxRateFor(target, p.intensity*float64(p.stripes))
	d := shiftctrl.SafeDistance(em, maxRate, p.segLen-1)
	fmt.Printf("\nsafe distance at %.3g ops/s: %d steps\n", p.intensity, d)

	if p.table {
		pl := shiftctrl.NewPlanner(em, shiftctrl.DefaultTiming(), p.segLen-1, p.segLen-1)
		a := shiftctrl.NewAdapter(pl, 2e9, target, p.stripes)
		fmt.Printf("\nadaptive sequences for a %d-step shift (Table 3b):\n", p.distance)
		fmt.Printf("  %-14s %-24s %s\n", "min interval", "sequence", "latency")
		for _, row := range a.Table(p.distance) {
			fmt.Printf("  %-14d %-24s %d cycles\n", row.MinInterval,
				fmt.Sprintf("%v", row.Seq), row.Cycles)
		}
	}
}

// check rejects what the model's plain-number functions cannot take:
// unchecked, they print +Inf or empty tables and the adapter panics.
func (p params) check() error {
	switch {
	case !(p.rate >= 0) || math.IsInf(p.rate, 0):
		return fmt.Errorf("-rate must be a finite rate >= 0, got %g", p.rate)
	case !positive(p.intensity):
		return fmt.Errorf("-intensity must be a finite rate > 0, got %g", p.intensity)
	case p.stripes < 1:
		return fmt.Errorf("-stripes must be at least 1, got %d", p.stripes)
	case !positive(p.targetY):
		return fmt.Errorf("-target-years must be finite and > 0, got %g", p.targetY)
	case p.segLen < 2:
		return fmt.Errorf("-seglen must be at least 2, got %d", p.segLen)
	case p.table && (p.distance < 1 || p.distance >= p.segLen):
		return fmt.Errorf("-distance must be in [1, %d] for -seglen %d, got %d", p.segLen-1, p.segLen, p.distance)
	}
	return nil
}

// positive reports whether v is finite and above zero.
func positive(v float64) bool { return v > 0 && !math.IsInf(v, 1) }
