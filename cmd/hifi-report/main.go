// Command hifi-report runs the full evaluation and renders it as a
// report: markdown (-o) and/or a single self-contained HTML file
// (-html) embedding every table, the paper-fidelity scorecard, the
// windowed time-series charts, a span flamegraph, and the run
// manifest. It also evaluates the fidelity anchor set against the
// generated tables (-fidelity-out writes the scorecard JSON,
// -fidelity-gate makes failing anchors fail the run) — the CI drift
// gate is exactly this binary.
//
// Usage:
//
//	hifi-report -o report.md                # full size (~2 min)
//	hifi-report -scaled -o report.md        # scaled hierarchy (seconds)
//	hifi-report -scaled -html report.html   # self-contained HTML report
//	hifi-report -scaled -jobs 8 -cache-dir .hificache \
//	    -fidelity-out fidelity.json -fidelity-gate
//
// -scaled, -accesses and -seed are checked as hifi-serve checks a spec:
// a negative -accesses exits 2, and -seed 0 is the default seed 1.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"racetrack/hifi/internal/bench"
	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/fidelity"
	"racetrack/hifi/internal/profile"
	"racetrack/hifi/internal/report"
	"racetrack/hifi/internal/telemetry/log"
)

func main() {
	var (
		out          = flag.String("o", "", "output markdown file (default stdout when -html unset)")
		htmlOut      = flag.String("html", "", "write a self-contained HTML report to this file")
		fidelityOut  = flag.String("fidelity-out", "", "write the fidelity scorecard JSON to this file")
		fidelityGate = flag.Bool("fidelity-gate", false, "exit nonzero when any fidelity anchor fails")
		scaled       = flag.Bool("scaled", false, "scaled-down hierarchy")
		accesses     = flag.Int("accesses", 0, "trace length per core (0 = default)")
		seed         = flag.Uint64("seed", 1, "trace seed")
		benchGlob    = flag.String("bench-glob", "BENCH_*.json",
			"bench snapshots for the HTML report's trajectory section (empty disables)")
	)
	obs := cliutil.NewObs("hifi-report")
	engFlags := cliutil.NewEngineFlags()
	flag.Parse()
	spec, opts := cliutil.CheckSpec("hifi-report", experiments.Spec{Scaled: *scaled, Accesses: *accesses, Seed: *seed})
	if *htmlOut != "" {
		// The HTML report's Performance section folds the span tree into
		// self-time tables, so spans are collected even without -spans-out.
		obs.EnableSpans()
	}
	ctx := obs.Start()
	// SIGINT/SIGTERM cancels the run context: the engine drains, the
	// sweep stops, and the observability artifacts still flush.
	ctx, stopSignals := cliutil.SignalContext(ctx, "hifi-report")
	defer stopSignals()
	eng, err := engFlags.Build(obs)
	if err != nil {
		log.Fatalf("hifi-report: %v", err)
	}

	opts.Metrics, opts.Sampler, opts.Events, opts.Eng = obs.Reg, obs.TS, obs.Events, eng

	tables, err := obs.Sweep(ctx, spec.Run, opts, nil)
	engFlags.Finish(eng)
	if err != nil {
		obs.Abort(ctx, err)
	}

	// The scorecard derives from the tables alone, so it inherits the
	// engine's determinism: byte-identical at any -jobs setting and
	// cache temperature.
	scorecard := fidelity.Evaluate(fidelity.Anchors(), tables)
	scorecard.Emit(obs.Events)
	log.Infof("fidelity: %d pass, %d warn, %d fail, %d skip",
		scorecard.Pass, scorecard.Warn, scorecard.Fail, scorecard.Skip)
	if *fidelityOut != "" {
		if err := scorecard.WriteFile(*fidelityOut); err != nil {
			log.Fatalf("hifi-report: %v", err)
		}
		obs.AddOutput(*fidelityOut)
		log.Infof("wrote %s", *fidelityOut)
	}

	// os.WriteFile reports a short write and a failed close alike.
	md := renderMarkdown(spec.Run, tables, opts)
	switch {
	case *out != "":
		if err := os.WriteFile(*out, []byte(md), 0o666); err != nil {
			log.Fatalf("hifi-report: %v", err)
		}
		obs.AddOutput(*out)
		log.Infof("wrote %s (%d experiments)", *out, len(spec.Run))
	case *htmlOut == "":
		fmt.Print(md)
	}

	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, buildHTML(obs, eng, *benchGlob, spec.Run, tables, scorecard, opts), 0o666); err != nil {
			log.Fatalf("hifi-report: %v", err)
		}
		obs.AddOutput(*htmlOut)
		log.Infof("wrote %s", *htmlOut)
	}

	if err := obs.Finish(); err != nil {
		log.Fatalf("hifi-report: %v", err)
	}
	if *fidelityGate {
		if err := scorecard.Err(); err != nil {
			log.Errorf("hifi-report: %v", err)
			os.Exit(1)
		}
	}
}

// buildHTML assembles the report.Data from everything the run
// produced: tables, scorecard, sampled time-series, span tree, the
// performance section (self-time analysis, bench trajectory, per-job
// resources), and the manifest-so-far (finished separately by
// obs.Finish).
func buildHTML(obs *cliutil.Obs, eng *engine.Engine, benchGlob string,
	order []string, tables map[string]experiments.Table,
	sc fidelity.Scorecard, opts experiments.RunOpts) []byte {
	d := report.Data{
		Title: "Hi-fi Playback reproduction report",
		Params: []report.Param{
			{Key: "scaled", Value: fmt.Sprint(opts.Scaled)},
			{Key: "accesses/core", Value: fmt.Sprint(opts.AccessesPerCore)},
			{Key: "seed", Value: fmt.Sprint(opts.Seed)},
		},
		Keys:      order,
		Tables:    tables,
		Scorecard: &sc,
	}
	if se := obs.TS.Export(); len(se.Windows) > 0 {
		d.Series = &se
	}
	if obs.Col != nil {
		e := obs.Col.Export()
		d.Spans = &e
		d.Perf = profile.Analyze(e)
		d.Perf.Heap = profile.HeapHotspots(profile.DefaultHeapTop)
	}
	if eng != nil {
		rs := eng.Resources()
		d.Resources = &rs
	}
	d.Trajectory = loadTrajectory(benchGlob)
	var mb bytes.Buffer
	if err := obs.Man.WriteJSON(&mb); err == nil {
		d.ManifestJSON = mb.Bytes()
	}
	return report.HTML(d)
}

// loadTrajectory folds the committed bench snapshots matching glob into
// the report's trajectory. Fewer than two snapshots (or a bad glob) just
// drops the subsection — the report must render on a fresh checkout.
func loadTrajectory(glob string) *bench.Trajectory {
	if glob == "" {
		return nil
	}
	paths, err := filepath.Glob(glob)
	if err != nil || len(paths) < 2 {
		return nil
	}
	tr, err := bench.LoadTrajectory(paths)
	if err != nil {
		log.Errorf("hifi-report: bench trajectory: %v", err)
		return nil
	}
	return tr
}

func renderMarkdown(order []string, tables map[string]experiments.Table, opts experiments.RunOpts) string {
	var b strings.Builder
	b.WriteString("# Hi-fi Playback reproduction report\n\n")
	fmt.Fprintf(&b, "Generated by hifi-report: scaled=%v, accesses/core=%d, seed=%d.\n\n",
		opts.Scaled, opts.AccessesPerCore, opts.Seed)
	b.WriteString("Each section reproduces one table or figure of the paper's\n")
	b.WriteString("evaluation; see EXPERIMENTS.md for the paper-vs-measured analysis.\n\n")
	for _, k := range order {
		tab := tables[k]
		fmt.Fprintf(&b, "## %s\n\n", tab.Title)
		if tab.Note != "" {
			fmt.Fprintf(&b, "_%s_\n\n", tab.Note)
		}
		writeMarkdownTable(&b, tab)
		b.WriteString("\n")
	}
	return b.String()
}

func writeMarkdownTable(b *strings.Builder, t experiments.Table) {
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
}
