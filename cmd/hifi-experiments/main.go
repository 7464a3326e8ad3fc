// Command hifi-experiments regenerates the paper's evaluation tables and
// figures. Each experiment prints the same rows or series the paper
// reports; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Usage:
//
//	hifi-experiments                 # run everything, full size
//	hifi-experiments -run fig11      # one experiment
//	hifi-experiments -scaled         # scaled-down hierarchy (seconds, not minutes)
//	hifi-experiments -csv -run fig16 # machine-readable output
//
// Observability (see docs/observability.md):
//
//	hifi-experiments -run fig14 -metrics-out fig14  # fig14.json + fig14.prom + fig14.manifest.json
//	hifi-experiments -run fig16 -spans-out fig16    # fig16.spans.json + fig16.folded (flamegraph)
//	hifi-experiments -pprof localhost:6060 -v
//
// Parallel sweeps (see docs/engine.md):
//
//	hifi-experiments -jobs 8                # 8 simulation workers
//	hifi-experiments -cache-dir .hificache  # content-addressed result reuse
//
// Rerunning an interrupted sweep over the same -cache-dir finishes it:
// only the jobs whose results never reached the cache execute.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/log"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment names (default: all); see -list")
		list     = flag.Bool("list", false, "list experiment names and exit")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned text")
		outDir   = flag.String("out", "", "write one CSV file per experiment into this directory")
		scaled   = flag.Bool("scaled", false, "scaled-down hierarchy for quick runs")
		accesses = flag.Int("accesses", 0, "trace length per core (0 = default)")
		seed     = flag.Uint64("seed", 1, "trace seed")
		trials   = flag.Int("mc-trials", 0, "Monte-Carlo trials for fig4 (0 = default)")
	)
	obs := cliutil.NewObs("hifi-experiments")
	engFlags := cliutil.NewEngineFlags()
	faultFlags := cliutil.NewFaultFlags()
	flag.Parse()

	if *list {
		for _, k := range experiments.Order() {
			fmt.Println(k)
		}
		return
	}

	keys, unknown := resolveKeys(*run)
	if len(unknown) > 0 {
		// Validate the whole selection before running anything: a typo at
		// the end of a multi-hour sweep must fail in the first second.
		log.Errorf("hifi-experiments: unknown experiment(s): %s", strings.Join(unknown, ", "))
		log.Errorf("hifi-experiments: valid names: %s", strings.Join(experiments.Order(), " "))
		os.Exit(2)
	}

	ctx := obs.Start()
	// SIGINT/SIGTERM cancels the run context: the engine drains, the loop
	// below stops before its next experiment, and the observability
	// artifacts still flush through obs.Finish.
	ctx, stopSignals := cliutil.SignalContext(ctx, "hifi-experiments")
	defer stopSignals()
	eng, err := engFlags.Build(obs)
	if err != nil {
		log.Fatalf("hifi-experiments: %v", err)
	}

	opts := experiments.DefaultRunOpts()
	if *scaled {
		opts = experiments.QuickRunOpts()
	}
	if *accesses > 0 {
		opts.AccessesPerCore = *accesses
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *trials > 0 {
		opts.MCTrials = *trials
	}
	opts.Metrics = obs.Reg
	opts.Sampler = obs.TS
	opts.Events = obs.Events
	opts.Eng = eng
	plan, err := faultFlags.Plan()
	if err != nil {
		log.Fatalf("hifi-experiments: %v", err)
	}
	opts.FaultPlan = plan
	if plan != nil {
		log.Infof("fault injection active: %d injector(s), plan seed %d", len(plan.Injectors), plan.Seed)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatalf("hifi-experiments: %v", err)
		}
	}
	interrupted := false
	for i, k := range keys {
		if ctx.Err() != nil {
			log.Errorf("hifi-experiments: interrupted; skipping %d remaining experiment(s)", len(keys)-i)
			interrupted = true
			break
		}
		log.Infof("running %s (%d/%d)", k, i+1, len(keys))
		obs.Phase(k)
		// One span per experiment; the generators are keyed closures that
		// capture opts by value, so rebuild the index with this
		// experiment's span context threaded in.
		kctx, ksp := telemetry.StartSpan(ctx, "experiment:"+k)
		opts.Ctx = kctx
		tab, err := experiments.Run(k, opts)
		ksp.End()
		if err != nil {
			if ctx.Err() != nil {
				// The cancellation surfaced inside the experiment; still
				// flush artifacts below.
				log.Errorf("hifi-experiments: %s interrupted; skipping %d remaining experiment(s)", k, len(keys)-i-1)
				interrupted = true
				break
			}
			log.Fatalf("hifi-experiments: %s: %v", k, err)
		}
		if el := ksp.Duration(); el > 0 {
			log.Infof("finished %s in %v", k, el.Round(time.Millisecond))
		} else {
			log.Infof("finished %s", k)
		}
		switch {
		case *outDir != "":
			path := filepath.Join(*outDir, k+".csv")
			if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
				log.Fatalf("hifi-experiments: %v", err)
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
		log.Fatalf("hifi-experiments: %v", err)
	}
	if interrupted {
		os.Exit(130)
	}
}

// resolveKeys expands the -run selection, returning the keys to run in
// order and every name that does not exist.
func resolveKeys(run string) (keys, unknown []string) {
	if run == "" {
		return experiments.Order(), nil
	}
	valid := make(map[string]bool)
	for _, k := range experiments.Order() {
		valid[k] = true
	}
	for _, k := range strings.Split(run, ",") {
		k = strings.TrimSpace(strings.ToLower(k))
		if k == "" {
			continue
		}
		if !valid[k] {
			unknown = append(unknown, k)
			continue
		}
		keys = append(keys, k)
	}
	return keys, unknown
}
