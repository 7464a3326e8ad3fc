// timeseries demonstrates the windowed-metrics sampler and the
// fidelity scorecard from Go code: it runs one workload with the
// registry windowed on the simulated-access clock, prints how the
// shift traffic evolves window by window, then scores a scaled
// experiment sweep against the paper-anchor set — the same machinery
// behind `hifi-sim -timeseries-out` and `hifi-report -fidelity-gate`.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/fidelity"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/timeseries"
	"racetrack/hifi/internal/trace"
)

func main() {
	workload := flag.String("workload", "canneal", "workload name")
	accesses := flag.Int("accesses", 20_000, "accesses per core")
	every := flag.Int("every", 4096, "window width in simulated accesses")
	flag.Parse()

	w, err := trace.ByName(*workload)
	if err != nil {
		log.Fatal(err)
	}

	// A sampler windows a live registry: each Tick advances the
	// simulated-access clock, and every `every` ticks the counter
	// deltas, gauge values, and histogram summaries since the last cut
	// are recorded as one window. memsim ticks and marks for us.
	reg := telemetry.NewRegistry()
	sampler := timeseries.New(reg, timeseries.Options{Every: *every})

	cfg := memsim.DefaultConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
	cfg.AccessesPerCore = *accesses
	cfg.Metrics = reg
	cfg.Sampler = sampler
	if _, err := memsim.Run(w, cfg); err != nil {
		log.Fatal(err)
	}

	se := sampler.Export()
	fmt.Printf("%s on the racetrack LLC: %d windows of %d accesses\n\n",
		w.Name, len(se.Windows), se.Every)
	fmt.Printf("%8s  %8s  %10s  %10s  %s\n",
		"window", "ticks", "shifts", "llc-reads", "marks")
	ticks, shifts := se.CounterSeries("hifi_shift_ops_total")
	_, reads := se.CounterSeries(`hifi_cache_hits_total{level="l3"}`)
	for i, win := range se.Windows {
		marks := ""
		for _, m := range win.Marks {
			marks += m + " "
		}
		fmt.Printf("%8d  %8d  %10.0f  %10.0f  %s\n",
			win.Index, ticks[i], shifts[i], reads[i], marks)
	}

	// The same windows drive the charts in `hifi-report -html`; the
	// JSON on disk (WriteFile) is what `/timeseries` serves live.

	// Fidelity: generate two analytic tables and score them against
	// the shipped paper-anchor set. Anchors for tables we did not
	// generate skip; a full sweep (hifi-report) leaves no skips.
	tables, err := experiments.Sweep(context.Background(), []string{"table2", "table5"},
		experiments.QuickRunOpts(), nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	sc := fidelity.Evaluate(fidelity.Anchors(), tables)
	fmt.Printf("\nfidelity vs the paper (analytic tables only): %d pass, %d warn, %d fail, %d skipped\n",
		sc.Pass, sc.Warn, sc.Fail, sc.Skip)
	for _, r := range sc.Anchors {
		if r.Status == fidelity.Pass && r.Experiment == "table2" {
			fmt.Printf("  e.g. %s [%s]: measured %g vs published %g\n",
				r.ID, r.Source, r.Measured, r.Want)
			break
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}
