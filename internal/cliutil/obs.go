// Package cliutil is the plumbing shared by the hifi-* binaries: the -v
// and -q log switches every binary takes; for the five that simulate
// or serve, the observability flag set (-metrics-out, -spans-out, -manifest-out,
// -pprof, ...; the daemon takes it without the span and time-series
// outputs), the wiring from those flags to the telemetry registry,
// span collector, run manifest, and live status server, and the
// end-of-run artifact writing; and the sweep path of hifi-experiments,
// hifi-report and hifi-chaos. Keeping it in one place means every CLI
// exposes the same surface and docs/observability.md documents all of
// them at once.
package cliutil

import (
	"context"
	"flag"
	"net/http"
	"strconv"
	"strings"
	"time"

	"racetrack/hifi/internal/profile"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/log"
	"racetrack/hifi/internal/telemetry/timeseries"
)

// Obs owns one CLI's observability state from flag registration to the
// final artifact writes. Zero-cost when no flag is set: the registry and
// span collector stay nil and the instrumented packages fall back to their
// nil-safe no-op paths.
type Obs struct {
	tool string
	fs   *flag.FlagSet

	metricsOut  *string
	spansOut    *string
	manifestOut *string
	statusAddr  *string
	tsOut       *string
	tsEvery     *int
	profKinds   *string
	profOut     *string
	perfOut     *string
	logLevel    *LogLevel

	// Reg aggregates metrics (nil unless requested or forced), Col
	// collects spans, Man is the run manifest (always present after
	// Start so /runinfo and crash forensics have provenance).
	Reg *telemetry.Registry
	Col *telemetry.SpanCollector
	Man *telemetry.Manifest

	// TS is the windowed time-series sampler (nil unless -timeseries-out
	// or -pprof asked for one). Thread it into the code being observed:
	// memsim.Config.Sampler, experiments.RunOpts.Sampler.
	TS *timeseries.Sampler

	// Mux is the live status mux once Start has launched it (nil without
	// -pprof). Subsystems built after Start — the experiment engine's
	// /engine route — register their handlers here; http.ServeMux is
	// safe for Handle calls while serving.
	Mux *http.ServeMux

	// Cap is the automated pprof capture (nil unless -profile named at
	// least one kind). Perf is the self-time analyzer behind /perf and
	// -perf-out (nil unless spans are being collected).
	Cap  *profile.Capture
	Perf *profile.Handler

	// Events is the structured event bus (nil unless -events-out or
	// -pprof asked for an event surface). Thread it into the code being
	// observed: engine.Options.Events, memsim.Config.Events,
	// experiments.RunOpts.Events. Health backs the enriched /healthz.
	Events *events.Bus
	Health *telemetry.HealthState

	ev          *EventsOut
	forceSpans  bool
	forceEvents bool
	started     time.Time
	root        *telemetry.Span
}

// NewObs registers the shared observability flags on the default flag set.
// Call before flag.Parse; call Start after.
func NewObs(tool string) *Obs { return AddFlags(flag.CommandLine, tool) }

// NewDaemonObs is NewObs without -spans-out, -timeseries-out and
// -timeseries-every, for a daemon whose jobs run outside the context
// Start returns and get no sampler: their span tree would hold the root
// span alone, and their time series no tick.
func NewDaemonObs(tool string) *Obs { return addFlags(flag.CommandLine, tool) }

// AddFlags registers the shared observability flags on fs.
func AddFlags(fs *flag.FlagSet, tool string) *Obs {
	o := addFlags(fs, tool)
	o.spansOut = fs.String("spans-out", "",
		"write the hierarchical span tree to <base>.spans.json and <base>.folded (flamegraph)")
	o.tsOut = fs.String("timeseries-out", "",
		"write the windowed metrics time-series (JSON) to this file")
	o.tsEvery = fs.Int("timeseries-every", timeseries.DefaultEvery,
		"time-series window width in simulated accesses")
	return o
}

// addFlags registers the flags every Obs takes. The span and
// time-series outputs stay off unless AddFlags registers theirs.
func addFlags(fs *flag.FlagSet, tool string) *Obs {
	every := timeseries.DefaultEvery
	o := &Obs{tool: tool, fs: fs, spansOut: new(string), tsOut: new(string), tsEvery: &every}
	o.metricsOut = fs.String("metrics-out", "",
		"write aggregated metrics snapshots to <base>.json and <base>.prom")
	o.manifestOut = fs.String("manifest-out", "",
		"write the run manifest here (default: <metrics/spans base>.manifest.json)")
	o.statusAddr = fs.String("pprof", "",
		"serve /metrics /spans /runinfo /timeseries /events /healthz and /debug/pprof on this address (e.g. localhost:6060)")
	o.profKinds = fs.String("profile", "",
		"capture pprof profiles: comma-separated cpu,heap,allocs,mutex,block or \"all\"")
	o.profOut = fs.String("profile-out", "",
		"profile base path; files land at <base>.<kind>.pprof (default: next to the manifest)")
	o.perfOut = fs.String("perf-out", "",
		"write the span self-time analysis (hifi_perf_v1 JSON) to this file")
	o.ev = AddEventsOut(fs, tool)
	o.logLevel = AddLogLevel(fs)
	return o
}

// EnableMetrics forces a registry even when -metrics-out is unset, for
// tools that read gauges while running (hifi-sim's progress line).
func (o *Obs) EnableMetrics() {
	if o.Reg == nil {
		o.Reg = telemetry.NewRegistry()
	}
}

// EnableSpans forces span collection even when -spans-out is unset, for
// tools that consume the span tree themselves (hifi-report's self-time
// section). Call before Start.
func (o *Obs) EnableSpans() { o.forceSpans = true }

// EnableEvents forces an event bus even when neither -events-out nor
// -pprof asked for one, for tools that serve the stream themselves
// (hifi-serve's /events and per-job SSE routes). Call before Start.
func (o *Obs) EnableEvents() { o.forceEvents = true }

// Start applies the log level, builds the telemetry objects the parsed
// flags call for, starts the status server, captures the resolved
// configuration into the manifest, and opens the root span. The returned
// context carries the span collector; thread it through the run.
func (o *Obs) Start() context.Context {
	o.logLevel.Apply()

	if *o.metricsOut != "" || *o.statusAddr != "" || *o.manifestOut != "" || *o.tsOut != "" {
		o.EnableMetrics()
	}
	if *o.spansOut != "" || *o.statusAddr != "" || *o.perfOut != "" || o.forceSpans {
		o.Col = telemetry.NewSpanCollector(o.Reg)
	}
	if o.Col != nil {
		col := o.Col
		o.Perf = profile.NewHandler(func() telemetry.SpanExport { return col.Export() })
	}
	if *o.tsOut != "" || *o.statusAddr != "" {
		o.TS = timeseries.New(o.Reg, timeseries.Options{Every: *o.tsEvery})
	}

	o.Man = telemetry.NewManifest(o.tool)
	cfg := make(map[string]string)
	o.fs.VisitAll(func(f *flag.Flag) { cfg[f.Name] = f.Value.String() })
	o.Man.SetConfig(cfg)
	if f := o.fs.Lookup("seed"); f != nil {
		if s, err := strconv.ParseUint(f.Value.String(), 10, 64); err == nil {
			o.Man.SetSeed(s)
		}
	}

	if kinds, err := profile.ParseKinds(*o.profKinds); err != nil {
		log.Fatalf("%s: -profile: %v", o.tool, err)
	} else if len(kinds) > 0 {
		o.Cap = profile.New(o.profileBase(), kinds)
		if err := o.Cap.Start(); err != nil {
			log.Errorf("profile: %v; continuing without capture", err)
			o.Cap = nil
		}
	}

	// The event bus exists whenever anything can consume it: an NDJSON
	// sink (-events-out) or the SSE /events route (-pprof). Detached
	// tools keep the nil bus and its zero-alloc Emit path.
	if o.ev.Path() != "" || *o.statusAddr != "" || o.forceEvents {
		o.Events = events.New(0)
		if err := o.ev.Attach(o.Events); err != nil {
			log.Fatalf("%s: -events-out: %v", o.tool, err)
		}
	}
	o.Health = telemetry.NewHealthState()
	o.Health.SetEventsSeq(o.Events.Seq)

	if *o.statusAddr != "" {
		var perf http.Handler
		if o.Perf != nil {
			perf = o.Perf
		}
		o.Mux = telemetry.NewStatusMux(telemetry.StatusBackends{
			Registry:   o.Reg,
			Spans:      o.Col,
			Manifest:   o.Man,
			Timeseries: o.TS.Handler(),
			Perf:       perf,
			Events:     events.Handler(o.Events, nil),
			Health:     o.Health,
		})
		go func(addr string, mux *http.ServeMux) {
			log.Infof("status listening on http://%s/ (/metrics /spans /runinfo /perf /events /debug/pprof)", addr)
			if err := http.ListenAndServe(addr, mux); err != nil {
				log.Errorf("status server: %v", err)
			}
		}(*o.statusAddr, o.Mux)
	}

	o.started = time.Now()
	o.Events.Emit(events.Event{Type: events.RunStart, Name: o.tool})

	ctx := context.Background()
	if o.Col != nil {
		ctx = telemetry.WithCollector(ctx, o.Col)
	}
	ctx, o.root = telemetry.StartSpan(ctx, o.tool)
	return ctx
}

// manifestPath resolves where the manifest goes: the explicit flag, else
// next to the metrics (or spans) output, else nowhere.
func (o *Obs) manifestPath() string {
	if *o.manifestOut != "" {
		return *o.manifestOut
	}
	if base := o.artifactBase(); base != "" {
		return base + ".manifest.json"
	}
	return ""
}

// artifactBase is the common output stem shared by the manifest and the
// profile files: the metrics (or spans) output path with its extensions
// stripped.
func (o *Obs) artifactBase() string {
	base := *o.metricsOut
	if base == "" {
		base = *o.spansOut
	}
	for _, ext := range []string{".json", ".prom", ".txt", ".spans", ".folded"} {
		base = strings.TrimSuffix(base, ext)
	}
	return base
}

// profileBase resolves the profile file stem: the explicit -profile-out,
// else next to the manifest, else the tool name (files in the working
// directory). Deterministic for a given flag set — the capture appends
// ".<kind>.pprof" per profile.
func (o *Obs) profileBase() string {
	if *o.profOut != "" {
		return *o.profOut
	}
	if base := o.artifactBase(); base != "" {
		return base
	}
	if *o.manifestOut != "" {
		return strings.TrimSuffix(*o.manifestOut, ".manifest.json")
	}
	return o.tool
}

// Phase marks a named run phase: it lands in the event stream and the
// /healthz body. Nil-safe.
func (o *Obs) Phase(name string) {
	if o == nil {
		return
	}
	o.Health.SetPhase(name)
	o.Events.Emit(events.Event{Type: events.RunPhase, Name: name})
}

// SetPerfResources attaches a resource-summary source (the experiment
// engine's Resources snapshot) to the /perf export.
func (o *Obs) SetPerfResources(f func() any) {
	if o != nil && o.Perf != nil {
		o.Perf.SetResources(f)
	}
}

// Finish ends the root span and writes every requested artifact: metrics
// snapshot, span export, and manifest. Returns the first write error; the
// run's numbers have already been printed by then, so callers typically
// route it to log.Fatalf.
func (o *Obs) Finish() error {
	o.root.End()
	o.Events.Emit(events.Event{
		Type: events.RunFinish,
		Name: o.tool,
		MS:   time.Since(o.started).Milliseconds(),
	})

	// failed keeps the first error and reports whether err is one.
	var firstErr error
	failed := func(err error) bool {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		return err != nil
	}
	if *o.metricsOut != "" {
		jsonPath, promPath, err := o.Reg.Snapshot().WriteFiles(*o.metricsOut)
		if !failed(err) {
			o.Man.AddOutput(jsonPath, promPath)
			log.Infof("wrote metrics to %s and %s", jsonPath, promPath)
		}
	}
	if *o.spansOut != "" && o.Col != nil {
		jsonPath, foldedPath, err := o.Col.Export().WriteFiles(*o.spansOut)
		if !failed(err) {
			o.Man.AddOutput(jsonPath, foldedPath)
			log.Infof("wrote spans to %s and %s", jsonPath, foldedPath)
		}
	}
	if o.Cap != nil {
		files, err := o.Cap.Stop()
		failed(err)
		if len(files) > 0 {
			o.Man.AddOutput(files...)
			log.Infof("wrote %d profile(s) to %s.*.pprof", len(files), o.profileBase())
		}
	}
	if *o.perfOut != "" && o.Perf != nil && !failed(o.Perf.Export().WriteFile(*o.perfOut)) {
		o.Man.AddOutput(*o.perfOut)
		log.Infof("wrote self-time analysis to %s", *o.perfOut)
	}
	if o.ev.Path() != "" {
		seq := o.Events.Seq()
		if !failed(o.ev.Close()) {
			o.Man.AddOutput(o.ev.Path())
			log.Infof("wrote %d event(s) to %s", seq, o.ev.Path())
		}
	}
	if *o.tsOut != "" && o.TS != nil {
		se := o.TS.Export()
		if !failed(se.WriteFile(*o.tsOut)) {
			o.Man.AddOutput(*o.tsOut)
			log.Infof("wrote %d time-series windows to %s", len(se.Windows), *o.tsOut)
		}
	}

	var snap *telemetry.Snapshot
	if o.Reg != nil {
		s := o.Reg.Snapshot()
		snap = &s
	}
	o.Man.Finish(snap)
	if path := o.manifestPath(); path != "" && !failed(o.Man.WriteFile(path)) {
		log.Infof("wrote manifest to %s", path)
	}
	return firstErr
}

// AddOutput records extra files the tool wrote (tables, traces, reports)
// into the manifest.
func (o *Obs) AddOutput(paths ...string) { o.Man.AddOutput(paths...) }

// LogLevel holds the -v and -q switches every hifi-* binary takes.
type LogLevel struct{ verbose, quiet *bool }

// AddLogLevel registers -v and -q on fs; the binaries without the Obs
// surface call it themselves. Call Apply after parsing.
func AddLogLevel(fs *flag.FlagSet) *LogLevel {
	return &LogLevel{
		verbose: fs.Bool("v", false, "debug logging (overrides HIFI_LOG)"),
		quiet:   fs.Bool("q", false, "errors only (overrides HIFI_LOG)"),
	}
}

// Apply sets the level the parsed switches ask for; -q wins over -v,
// and with neither HIFI_LOG keeps its say.
func (l *LogLevel) Apply() {
	switch {
	case *l.quiet:
		log.SetLevel(log.Error)
	case *l.verbose:
		log.SetLevel(log.Debug)
	}
}
