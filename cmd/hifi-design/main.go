// Command hifi-design searches the racetrack-memory design space: given
// reliability, area, and latency requirements it evaluates stripe
// geometries, protection schemes, and p-ECC strengths through the analytic
// models and prints the feasible configurations and their Pareto frontier.
// It simulates nothing, so it takes only its own flags and -v/-q.
//
// Usage:
//
//	hifi-design                                  # the paper's requirements
//	hifi-design -due 100 -max-area 9.5           # stricter reliability, area cap
//	hifi-design -intensity 20e6 -max-latency 10  # lighter duty cycle
//
// A negative or non-finite requirement, or an -intensity that is not
// above zero, exits 2 with a message naming the flag.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/design"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/telemetry/log"
)

func main() {
	var (
		dueYears  = flag.Float64("due", 10, "minimum DUE MTTF in years")
		sdcYears  = flag.Float64("sdc", 1000, "minimum SDC MTTF in years")
		maxArea   = flag.Float64("max-area", 0, "maximum area per data bit in F^2 (0 = unbounded)")
		maxLat    = flag.Float64("max-latency", 0, "maximum average shift cycles per access (0 = unbounded)")
		intensity = flag.Float64("intensity", 83e6, "sustained shift intensity, ops/s")
		all       = flag.Bool("all", false, "print every feasible point, not just the Pareto frontier")
	)
	logLevel := cliutil.AddLogLevel(flag.CommandLine)
	flag.Parse()
	logLevel.Apply()

	req := design.Requirements{
		MinDUEYears:   *dueYears,
		MinSDCYears:   *sdcYears,
		MaxAreaPerBit: *maxArea,
		MaxLatency:    *maxLat,
		Intensity:     *intensity,
		Stripes:       512,
	}
	if err := check(req); err != nil {
		log.Errorf("hifi-design: %v", err)
		os.Exit(2)
	}

	feasible, rejected := design.Search(design.DefaultSpace(), req)
	fmt.Printf("requirements: DUE >= %gy, SDC >= %gy, intensity %.3g ops/s",
		*dueYears, *sdcYears, *intensity)
	if *maxArea > 0 {
		fmt.Printf(", area <= %g F^2/b", *maxArea)
	}
	if *maxLat > 0 {
		fmt.Printf(", latency <= %g cycles", *maxLat)
	}
	fmt.Printf("\n%d feasible configurations (%d rejected)\n\n", len(feasible), rejected)

	points := design.Pareto(feasible)
	label := "Pareto frontier (area / latency / DUE MTTF)"
	if *all {
		points = feasible
		label = "all feasible configurations"
	}
	fmt.Println(label + ":")
	fmt.Printf("  %-32s %10s %10s %14s %14s %10s\n",
		"configuration", "F^2/bit", "cycles", "DUE MTTF", "SDC MTTF", "nJ/access")
	for _, p := range points {
		fmt.Printf("  %-32s %10.2f %10.2f %13.3gy %13.3gy %10.2f\n",
			p.Label(), p.AreaPerBit, p.AvgLatency,
			mttf.Years(p.DUEMTTF), mttf.Years(p.SDCMTTF), p.AvgEnergy)
	}
	if len(points) == 0 {
		fmt.Println("  (none — relax the requirements)")
	}
}

// check rejects requirements design.Search, which returns no error,
// cannot take: a zero -intensity would list +Inf MTTFs.
func check(req design.Requirements) error {
	for _, f := range []struct {
		flag string
		v    float64
	}{{"-due", req.MinDUEYears}, {"-sdc", req.MinSDCYears}, {"-max-area", req.MaxAreaPerBit}, {"-max-latency", req.MaxLatency}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("%s must be finite and >= 0, got %g", f.flag, f.v)
		}
	}
	if !(req.Intensity > 0) || math.IsInf(req.Intensity, 1) {
		return fmt.Errorf("-intensity must be a finite rate > 0, got %g", req.Intensity)
	}
	return nil
}
