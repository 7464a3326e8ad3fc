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
// results never share cache entries.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
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

	xs, err := parseIntensities(*intensities)
	if err != nil {
		log.Fatalf("hifi-chaos: %v", err)
	}
	ss, err := parseSchemes(*schemes)
	if err != nil {
		log.Fatalf("hifi-chaos: %v", err)
	}
	plan, err := faultFlags.Plan()
	if err != nil {
		log.Fatalf("hifi-chaos: %v", err)
	}
	if plan == nil {
		// A chaos campaign with no faults is a no-op; default to the
		// mixed preset rather than sweeping the nominal device N times.
		plan, err = faults.Preset("mixed")
		if err != nil {
			log.Fatalf("hifi-chaos: %v", err)
		}
		log.Infof("no fault plan given; using the mixed preset")
	}

	ctx := obs.Start()
	eng, err := engFlags.Build(obs)
	if err != nil {
		log.Fatalf("hifi-chaos: %v", err)
	}

	run := experiments.DefaultRunOpts()
	if *scaled {
		run = experiments.QuickRunOpts()
	}
	if *accesses > 0 {
		run.AccessesPerCore = *accesses
	}
	if *seed != 0 {
		run.Seed = *seed
	}
	run.Metrics = obs.Reg
	run.Sampler = obs.TS
	run.Events = obs.Events
	run.Eng = eng
	run.Ctx = ctx

	opts := experiments.ChaosOpts{RunOpts: run, Plan: plan, Intensities: xs, Schemes: ss}
	log.Infof("campaign: %d injector(s) x %d intensities x %d schemes",
		len(plan.Injectors), len(xs), len(ss))
	tables := experiments.Degradation(opts)

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatalf("hifi-chaos: %v", err)
		}
	}
	names := []string{"due_mttf", "sdc_mttf", "exec_time"}
	for i, tab := range tables {
		switch {
		case *outDir != "":
			path := filepath.Join(*outDir, "chaos_"+names[i]+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				log.Fatalf("hifi-chaos: %v", err)
			}
			obs.AddOutput(path)
			log.Infof("wrote %s", path)
		case *csv:
			fmt.Print(tab.CSV())
		default:
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(tab.String())
		}
	}

	engFlags.Finish(eng)
	if err := obs.Finish(); err != nil {
		log.Fatalf("hifi-chaos: %v", err)
	}
}

func parseIntensities(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad intensity %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -intensities")
	}
	return out, nil
}

func parseSchemes(s string) ([]shiftctrl.Scheme, error) {
	var out []shiftctrl.Scheme
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(strings.ToLower(f))
		if f == "" {
			continue
		}
		sc, err := shiftctrl.ParseScheme(f)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -schemes")
	}
	return out, nil
}
