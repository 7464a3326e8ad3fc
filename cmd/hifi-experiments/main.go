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
//
// The sweep flags fill an experiments.Spec, hifi-serve's POST /v1/jobs
// body: an unknown -run key or a negative -accesses or -mc-trials exits
// 2, before anything runs, with the message the daemon answers 400 with.
// So does a fault flag the daemon would refuse: an unknown -faults
// preset, a bad -fault-plan, or a -fault-intensity that leaves the plan
// negative or not finite.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/experiments"
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
	// The whole spec is checked before anything runs: a typo at the end
	// of a multi-hour sweep must fail in the first second.
	spec, opts := cliutil.CheckSpec("hifi-experiments", experiments.Spec{
		Run: strings.Split(*run, ","), Scaled: *scaled, Accesses: *accesses, Seed: *seed, MCTrials: *trials,
	})
	plan := faultFlags.Check("hifi-experiments")

	ctx := obs.Start()
	// SIGINT/SIGTERM cancels the run context: the engine drains, the
	// sweep stops before its next experiment, and the observability
	// artifacts still flush.
	ctx, stopSignals := cliutil.SignalContext(ctx, "hifi-experiments")
	defer stopSignals()
	eng, err := engFlags.Build(obs)
	if err != nil {
		log.Fatalf("hifi-experiments: %v", err)
	}
	opts.Metrics, opts.Sampler, opts.Events, opts.Eng, opts.FaultPlan = obs.Reg, obs.TS, obs.Events, eng, plan
	if plan != nil {
		log.Infof("fault injection active: %d injector(s), plan seed %d", len(plan.Injectors), plan.Seed)
	}

	if *outDir != "" { // fail before the sweep, not after its first table
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatalf("hifi-experiments: %v", err)
		}
	}
	_, err = obs.Sweep(ctx, spec.Run, opts, func(i int, k string, tab experiments.Table) error {
		return obs.EmitTable(*outDir, k, i, tab, *csv)
	})
	engFlags.Finish(eng)
	if err != nil {
		obs.Abort(ctx, err)
	}
	if err := obs.Finish(); err != nil {
		log.Fatalf("hifi-experiments: %v", err)
	}
}
