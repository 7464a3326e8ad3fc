package cliutil

// Shared flag surface for the parallel experiment engine: every binary
// that runs sweeps registers -jobs, -cache-dir and -cache-max-bytes
// through EngineFlags so the flags, their defaults, and the wiring to
// the telemetry registry and the /engine status route stay uniform
// across the CLI fleet. See docs/engine.md.

import (
	"flag"
	"runtime"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/telemetry/log"
)

// EngineFlags holds the parsed engine flags for one CLI.
type EngineFlags struct {
	jobs          *int
	cacheDir      *string
	cacheMaxBytes *int64
}

// NewEngineFlags registers the engine flags on the default flag set.
// Call before flag.Parse; call Build after Obs.Start.
func NewEngineFlags() *EngineFlags { return AddEngineFlags(flag.CommandLine) }

// AddEngineFlags registers the engine flags on fs.
func AddEngineFlags(fs *flag.FlagSet) *EngineFlags {
	ef := &EngineFlags{}
	ef.jobs = fs.Int("jobs", runtime.NumCPU(),
		"parallel simulation jobs (worker pool size)")
	ef.cacheDir = fs.String("cache-dir", "",
		"content-addressed result cache directory (empty keeps the cache in memory for this run)")
	ef.cacheMaxBytes = fs.Int64("cache-max-bytes", 0,
		"size budget for the result cache; least-recently-accessed cache buckets are evicted above it (0 = unlimited)")
	return ef
}

// Build assembles the engine the parsed flags describe: worker pool
// width, result cache, metrics from the Obs registry,
// and — when the Obs status server is up — the /engine route. Call
// after Obs.Start so the registry and mux exist.
//
// Without -cache-dir the cache lives in memory for this one run, so a
// result shared by several experiments is still computed once. An
// unusable cache directory (unwritable disk, bad permissions) is a
// degradation, not a failure: Build warns once and falls back to the
// same in-memory cache, so a sweep on a sick machine still completes —
// it just cannot keep its results past the run.
func (ef *EngineFlags) Build(o *Obs) (*engine.Engine, error) {
	opts := engine.Options{Workers: *ef.jobs}
	if o != nil {
		opts.Metrics = o.Reg
		opts.Events = o.Events
	}
	if *ef.cacheDir != "" {
		cache, err := engine.OpenCache(*ef.cacheDir, "")
		if err != nil {
			log.Errorf("engine: %v; continuing with an in-memory cache (results will not outlive this run)", err)
		} else {
			opts.Cache = cache
			if o != nil {
				cache.Instrument(o.Reg)
			}
			if *ef.cacheMaxBytes > 0 {
				cache.SetMaxBytes(*ef.cacheMaxBytes)
			}
		}
	}
	if opts.Cache == nil {
		cache, err := engine.OpenCacheFS("", "", engine.MemFS())
		if err != nil {
			return nil, err
		}
		opts.Cache = cache
	}
	eng := engine.New(opts)
	if o != nil && o.Mux != nil {
		o.Mux.Handle("/engine", eng.StatusHandler())
	}
	if o != nil {
		o.SetPerfResources(func() any { return eng.Resources() })
		o.Health.SetInFlight(eng.InFlight)
	}
	return eng, nil
}

// Finish logs the engine's sweep-wide summary line. Safe to call with a
// nil engine (flags registered, Build never called).
func (ef *EngineFlags) Finish(eng *engine.Engine) {
	if eng != nil {
		log.Infof("%s", eng.Summary())
	}
}
