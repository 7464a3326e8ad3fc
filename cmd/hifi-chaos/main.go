// Command hifi-chaos runs a fault-injection campaign: it sweeps a fault
// plan across an intensity axis for several protection schemes and
// prints degradation curves — DUE MTTF, SDC MTTF, and normalized
// execution time versus fault intensity. See docs/faults.md for the
// plan schema and how to read the curves.
//
// Usage:
//
//	hifi-chaos -scaled                         # quick campaign, mixed preset
//	hifi-chaos -faults temp -intensities 0,1,2,4,8
//	hifi-chaos -fault-plan plan.json -schemes sed,secded,adaptive
//	hifi-chaos -scaled -cache-dir .hificache -jobs 8
//
// Each (scheme, intensity, workload) simulation is one engine job, so
// -cache-dir and -jobs behave exactly as in hifi-experiments; the
// fault plan is part of each job's fingerprint, so injected and nominal
// results never share cache entries. -scaled, -accesses and -seed are
// checked as hifi-serve checks a spec, and the fault flags as it checks
// a spec's plan, at every -intensities point; any invalid flag value
// exits 2.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/faults"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry/log"
)

func main() {
	var (
		intensities = flag.String("intensities", "0,0.5,1,2,4", "comma-separated fault-intensity sweep points")
		schemes     = flag.String("schemes", "baseline,sed,secded,adaptive", "comma-separated protection schemes to compare")
		scaled      = flag.Bool("scaled", false, "scaled-down hierarchy for quick campaigns")
		accesses    = flag.Int("accesses", 0, "trace length per core (0 = default)")
		seed        = flag.Uint64("seed", 1, "trace seed")
		csv         = flag.Bool("csv", false, "emit CSV instead of aligned text")
		outDir      = flag.String("out", "", "write one CSV file per curve into this directory")
	)
	obs := cliutil.NewObs("hifi-chaos")
	engFlags := cliutil.NewEngineFlags()
	faultFlags := cliutil.NewFaultFlags()
	flag.Parse()

	_, run := cliutil.CheckSpec("hifi-chaos", experiments.Spec{Scaled: *scaled, Accesses: *accesses, Seed: *seed})
	xs, err := parseList("-intensities", *intensities, parseIntensity)
	var ss []shiftctrl.Scheme
	if err == nil {
		ss, err = parseList("-schemes", *schemes, parseScheme)
	}
	plan := faultFlags.Check("hifi-chaos")
	mixed := plan == nil
	if mixed && err == nil {
		// A chaos campaign with no faults is a no-op; default to the
		// mixed preset rather than sweeping the nominal device N times.
		plan, err = faults.Preset("mixed")
	}
	if err == nil {
		err = checkPoints(plan, xs)
	}
	if err != nil {
		log.Errorf("hifi-chaos: %v", err)
		os.Exit(2)
	}

	ctx := obs.Start()
	if mixed {
		log.Infof("no fault plan given; using the mixed preset")
	}
	eng, err := engFlags.Build(obs)
	if err != nil {
		log.Fatalf("hifi-chaos: %v", err)
	}

	run.Metrics, run.Sampler, run.Events, run.Eng, run.Ctx = obs.Reg, obs.TS, obs.Events, eng, ctx

	opts := experiments.ChaosOpts{RunOpts: run, Plan: plan, Intensities: xs, Schemes: ss}
	log.Infof("campaign: %d injector(s) x %d intensities x %d schemes",
		len(plan.Injectors), len(xs), len(ss))
	tables := experiments.Degradation(opts)

	names := []string{"due_mttf", "sdc_mttf", "exec_time"}
	for i, tab := range tables {
		if err := obs.EmitTable(*outDir, "chaos_"+names[i], i, tab, *csv); err != nil {
			log.Fatalf("hifi-chaos: %v", err)
		}
	}

	engFlags.Finish(eng)
	if err := obs.Finish(); err != nil {
		log.Fatalf("hifi-chaos: %v", err)
	}
}

// parseList parses a comma-separated flag value item by item, skipping
// blank items; a list with no item is an error.
func parseList[T any](flag, s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty %s", flag)
	}
	return out, nil
}

func parseIntensity(f string) (float64, error) {
	v, err := strconv.ParseFloat(f, 64)
	if err != nil || !(v >= 0) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("bad intensity %q", f)
	}
	return v, nil
}

// checkPoints refuses a sweep point at which the scaled plan is invalid:
// a plan intensity times a point can overflow to +Inf.
func checkPoints(plan *faults.Plan, xs []float64) error {
	for _, x := range xs {
		if err := plan.Scale(x).Validate(); err != nil {
			return fmt.Errorf("-intensities point %g: %w", x, err)
		}
	}
	return nil
}

func parseScheme(f string) (shiftctrl.Scheme, error) {
	return shiftctrl.ParseScheme(strings.ToLower(f))
}
