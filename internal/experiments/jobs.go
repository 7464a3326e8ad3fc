package experiments

// Engine glue: the simulation-backed experiments no longer loop over
// memsim inline — they enumerate engine Jobs (one per workload+config
// tuple) and hand the batch to the parallel experiment engine. Results
// travel as SimRes, a JSON-stable projection of memsim.Result, so a
// result decoded from the content-addressed cache is byte-for-byte the
// result a fresh run produces and tables render identically at any
// worker count or cache temperature. See docs/engine.md.

import (
	"context"
	"fmt"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/trace"
)

// SimRes is the slice of a memsim.Result the tables consume, with only
// exported primitive fields so it survives the engine's canonical JSON
// encoding losslessly (Go's float64 JSON round-trip is exact).
type SimRes struct {
	Workload    string       `json:"workload"`
	Cycles      uint64       `json:"cycles"`
	ShiftOps    uint64       `json:"shift_ops"`
	ShiftSteps  uint64       `json:"shift_steps"`
	ShiftCycles uint64       `json:"shift_cycles"`
	SDCMTTF     engine.Float `json:"sdc_mttf_s"` // MTTFs are +Inf when no failure mass accrued
	DUEMTTF     engine.Float `json:"due_mttf_s"`
	LLCDynNJ    float64      `json:"llc_dynamic_nj"`
	TotalJ      float64      `json:"total_j"`
}

func toSimRes(r memsim.Result) SimRes {
	return SimRes{
		Workload:    r.Workload,
		Cycles:      r.Cycles,
		ShiftOps:    r.ShiftOps,
		ShiftSteps:  r.ShiftSteps,
		ShiftCycles: r.ShiftCycles,
		SDCMTTF:     engine.Float(r.Tracker.SDCMTTF()),
		DUEMTTF:     engine.Float(r.Tracker.DUEMTTF()),
		LLCDynNJ:    r.Energy.LLCDynamicNJ(),
		TotalJ:      r.Energy.TotalJ(),
	}
}

// engine returns the configured engine, or a serial, uncached fallback
// that behaves exactly like the old inline loop.
func (o RunOpts) engine() *engine.Engine {
	if o.Eng != nil {
		return o.Eng
	}
	return engine.New(engine.Options{Workers: 1, Metrics: o.Metrics})
}

// simJob builds the engine job for one (workload, config) simulation.
// The job key is the resolved memsim fingerprint, so identical runs
// reached from different experiments (Fig 10's SED batch, Fig 11's SED
// batch) content-address to the same cache entry. With a stream store,
// each attempt draws its per-core streams from it (the key is taken
// first: a config with Sources has no fingerprint); they are the
// streams memsim would generate itself.
func (o RunOpts) simJob(w trace.Workload, cfg memsim.Config, tag string) engine.Job {
	metrics := o.Metrics
	sampler := o.Sampler
	bus := o.Events
	streams := o.streams
	return engine.Job{
		Key:   cfg.Fingerprint(w),
		Label: fmt.Sprintf("%s:%s", tag, w.Name),
		Fn: func(ctx context.Context) (any, error) {
			run := cfg
			run.Metrics = metrics
			run.Sampler = sampler
			run.Events = bus
			if streams != nil {
				run.Sources = make([]memsim.Source, run.Cores)
				for i := range run.Sources {
					run.Sources[i] = streams.Source(w, i, run.Seed, run.AccessesPerCore)
				}
			}
			r, err := memsim.RunCtx(ctx, w, run)
			if err != nil {
				return nil, err
			}
			return toSimRes(r), nil
		},
	}
}

// simJobs enumerates one job per roster workload for the given system.
func (o RunOpts) simJobs(t energy.Tech, s shiftctrl.Scheme, ideal bool) []engine.Job {
	tag := fmt.Sprintf("%v/%v", t, s)
	if ideal {
		tag += "/ideal"
	}
	jobs := make([]engine.Job, 0, 12)
	for _, w := range o.workloads() {
		cfg := o.config(t, s)
		cfg.Ideal = ideal
		jobs = append(jobs, o.simJob(w, cfg, tag))
	}
	return jobs
}

// runSims executes a job batch on the engine and returns the decoded
// results in submission order; a cached engine decodes each distinct
// result once per sweep. Failures panic, matching the previous
// inline-loop behaviour the CLIs rely on.
func (o RunOpts) runSims(jobs []engine.Job) []SimRes {
	out, err := engine.RunDecoded[SimRes](o.ctx(), o.engine(), jobs)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return out
}
