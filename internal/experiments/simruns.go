package experiments

import (
	"context"
	"fmt"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/faults"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/timeseries"
	"racetrack/hifi/internal/trace"
)

// RunOpts controls the simulation-backed experiments.
type RunOpts struct {
	// AccessesPerCore is the trace length; 0 uses the memsim default.
	AccessesPerCore int
	// Seed selects the deterministic trace family.
	Seed uint64
	// Scaled shrinks the hierarchy and working sets by ScaleShift powers
	// of two so tests and quick runs finish in seconds while preserving
	// the capacity relationships (SRAM < STT < RM; working sets between
	// SRAM and RM capacity).
	Scaled bool
	// MCTrials is the Monte-Carlo trial count for Fig 4.
	MCTrials int
	// Metrics optionally aggregates telemetry across every simulation an
	// experiment runs (shift counts, LLC traffic, expected failures);
	// see docs/observability.md. Nil disables instrumentation.
	Metrics *telemetry.Registry
	// Sampler optionally windows the Metrics registry on the simulated-
	// access clock, so a sweep produces a time-series of its evolution
	// (docs/observability.md). Cache-served jobs do not re-simulate and
	// therefore contribute no windows. Nil disables sampling.
	Sampler *timeseries.Sampler
	// Ctx carries the span collector (telemetry.WithCollector) so every
	// simulation an experiment runs is timed as a span under the caller's
	// tree. Nil means context.Background(), i.e. no span recording. It
	// lives in the options struct because the Fig*/Table* generators are
	// keyed closures whose signatures the CLI iterates over.
	Ctx context.Context
	// Eng executes the simulation jobs the experiments enumerate: worker
	// pool and content-addressed result cache (see docs/engine.md). Nil
	// falls back to a serial, uncached engine that reproduces the old
	// inline loop exactly.
	Eng *engine.Engine
	// FaultPlan optionally runs every racetrack simulation under an
	// off-nominal device regime (internal/faults; -faults/-fault-plan
	// on the CLIs). Nil is the nominal device: tables are byte-identical
	// to a plan-free run, and the plan participates in the engine cache
	// fingerprint so injected and nominal results never mix.
	FaultPlan *faults.Plan
	// Events optionally receives the structured event stream: memsim
	// phase boundaries and fault windows from every simulation (the
	// engine's job lifecycle is wired separately through Eng; see
	// docs/events.md). Nil disables emission.
	Events *events.Bus

	// streams is the running experiment's access-stream store (see
	// withStreams); nil generates every stream.
	streams *trace.Streams
}

// withStreams gives an experiment its own stream store, so its
// simulations generate each access stream once and replay it after
// that (trace.Streams). Every simulation-backed experiment calls it on
// entry; an options value that already carries a store keeps it.
func (o RunOpts) withStreams() RunOpts {
	if o.streams == nil {
		o.streams = trace.NewStreams()
	}
	return o
}

// ctx returns the configured context, defaulting to Background.
func (o RunOpts) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// DefaultRunOpts is the full-size configuration used by the benchmarks.
func DefaultRunOpts() RunOpts {
	return RunOpts{AccessesPerCore: 200_000, Seed: 1, MCTrials: 200_000}
}

// QuickRunOpts is the scaled configuration used by unit tests.
func QuickRunOpts() RunOpts {
	return RunOpts{AccessesPerCore: 4_000, Seed: 1, Scaled: true, MCTrials: 20_000}
}

// Scaled-mode hierarchy: capacities shrink while preserving the Table 4
// relationships (L1 < L2 < SRAM L3 < STT L3 < RM L3) and the working-set
// bands (insensitive sets fit every LLC or stream; sensitive sets overflow
// the SRAM LLC but fit the racetrack LLC).
const (
	scaledL1 = 2 << 10
	scaledL2 = 8 << 10
	// workload working sets shrink by this many powers of two.
	wsShift = 7
)

func scaledL3(t energy.Tech) int64 {
	switch t {
	case energy.SRAM:
		return 32 << 10
	case energy.STTRAM:
		return 256 << 10
	default:
		return 1 << 20
	}
}

// config builds a memsim configuration for the given technology and scheme.
func (o RunOpts) config(t energy.Tech, s shiftctrl.Scheme) memsim.Config {
	cfg := memsim.DefaultConfig(t, s)
	if o.AccessesPerCore > 0 {
		cfg.AccessesPerCore = o.AccessesPerCore
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Scaled {
		cfg.L1Capacity = scaledL1
		cfg.L2Capacity = scaledL2
		cfg.L3Capacity = scaledL3(t)
	}
	cfg.Metrics = o.Metrics
	cfg.Sampler = o.Sampler
	cfg.FaultPlan = o.FaultPlan.Norm()
	cfg.Events = o.Events
	return cfg
}

// workloads returns the PARSEC roster, with working sets scaled to the
// shrunken hierarchy when opts.Scaled is set.
func (o RunOpts) workloads() []trace.Workload {
	ws := trace.PARSEC()
	if !o.Scaled {
		return ws
	}
	for i := range ws {
		ws[i].WorkingSetB >>= wsShift
		// Keep every workload above the L2 capacity so the LLC sees
		// traffic, but insensitive sets stay within the SRAM LLC band.
		if ws[i].WorkingSetB < 12<<10 {
			ws[i].WorkingSetB = 12 << 10
		}
	}
	return ws
}

// runAll simulates every workload under the given configuration and
// returns results in roster order. The batch is executed by the
// engine — in parallel when RunOpts.Eng has workers — and each job is
// timed by its own engine span under the per-configuration span here.
func (o RunOpts) runAll(t energy.Tech, s shiftctrl.Scheme, ideal bool) []SimRes {
	ctx, sp := telemetry.StartSpan(o.ctx(), fmt.Sprintf("runAll:%v/%v", t, s),
		telemetry.A("ideal", fmt.Sprint(ideal)))
	defer sp.End()
	batch := o
	batch.Ctx = ctx
	return batch.runSims(o.simJobs(t, s, ideal))
}

// Fig10 regenerates paper Fig. 10: SDC MTTF of the racetrack LLC per
// workload under no protection, SED p-ECC, and SECDED p-ECC.
func Fig10(opts RunOpts) Table {
	opts = opts.withStreams()
	t := Table{
		Title:  "Fig 10: SDC MTTF under different protection (seconds)",
		Header: []string{"workload", "baseline", "SED p-ECC", "SECDED p-ECC"},
	}
	base := opts.runAll(energy.Racetrack, shiftctrl.Baseline, false)
	sed := opts.runAll(energy.Racetrack, shiftctrl.SED, false)
	sec := opts.runAll(energy.Racetrack, shiftctrl.SECDED, false)
	for i := range base {
		t.AddRow(base[i].Workload,
			float64(base[i].SDCMTTF),
			float64(sed[i].SDCMTTF),
			float64(sec[i].SDCMTTF))
	}
	return t
}

// Fig11 regenerates paper Fig. 11: DUE MTTF per workload for SED, SECDED,
// p-ECC-O, p-ECC-S worst and p-ECC-S adaptive.
func Fig11(opts RunOpts) Table {
	opts = opts.withStreams()
	t := Table{
		Title: "Fig 11: DUE MTTF under different protection (seconds)",
		Header: []string{"workload", "SED", "SECDED", "SECDED p-ECC-O",
			"p-ECC-S worst", "p-ECC-S adaptive"},
	}
	sed := opts.runAll(energy.Racetrack, shiftctrl.SED, false)
	sec := opts.runAll(energy.Racetrack, shiftctrl.SECDED, false)
	po := opts.runAll(energy.Racetrack, shiftctrl.PECCO, false)
	pw := opts.runAll(energy.Racetrack, shiftctrl.PECCSWorst, false)
	pa := opts.runAll(energy.Racetrack, shiftctrl.PECCSAdaptive, false)
	for i := range sed {
		t.AddRow(sed[i].Workload,
			float64(sed[i].DUEMTTF),
			float64(sec[i].DUEMTTF),
			float64(po[i].DUEMTTF),
			float64(pw[i].DUEMTTF),
			float64(pa[i].DUEMTTF))
	}
	return t
}

// Fig14 regenerates paper Fig. 14: total shift latency per workload,
// normalized to the unprotected racetrack baseline.
func Fig14(opts RunOpts) Table {
	opts = opts.withStreams()
	t := Table{
		Title:  "Fig 14: relative shift latency of racetrack memory",
		Header: []string{"workload", "baseline", "p-ECC-O", "p-ECC-S adaptive", "p-ECC-S worst"},
	}
	base := opts.runAll(energy.Racetrack, shiftctrl.Baseline, false)
	po := opts.runAll(energy.Racetrack, shiftctrl.PECCO, false)
	pa := opts.runAll(energy.Racetrack, shiftctrl.PECCSAdaptive, false)
	pw := opts.runAll(energy.Racetrack, shiftctrl.PECCSWorst, false)
	for i := range base {
		b := float64(base[i].ShiftCycles)
		if b == 0 {
			b = 1
		}
		t.AddRow(base[i].Workload, 1.0,
			float64(po[i].ShiftCycles)/b,
			float64(pa[i].ShiftCycles)/b,
			float64(pw[i].ShiftCycles)/b)
	}
	return t
}

// fig16Schemes lists the system configurations compared by Figs. 16-18.
type sysConfig struct {
	label  string
	tech   energy.Tech
	scheme shiftctrl.Scheme
	ideal  bool
}

func fig16Configs() []sysConfig {
	return []sysConfig{
		{"SRAM", energy.SRAM, shiftctrl.Baseline, false},
		{"STT-RAM", energy.STTRAM, shiftctrl.Baseline, false},
		{"RM-Ideal", energy.Racetrack, shiftctrl.Baseline, true},
		{"RM w/o p-ECC", energy.Racetrack, shiftctrl.Baseline, false},
		{"RM p-ECC-O", energy.Racetrack, shiftctrl.PECCO, false},
		{"RM p-ECC-S adaptive", energy.Racetrack, shiftctrl.PECCSAdaptive, false},
		{"RM p-ECC-S worst", energy.Racetrack, shiftctrl.PECCSWorst, false},
	}
}

// Fig16 regenerates paper Fig. 16: overall execution time per workload,
// normalized to SRAM.
func Fig16(opts RunOpts) Table {
	return sysComparison(opts, "Fig 16: overall execution time (normalized to SRAM)",
		func(r SimRes) float64 { return float64(r.Cycles) })
}

// Fig17 regenerates paper Fig. 17: LLC dynamic energy per workload,
// normalized to SRAM.
func Fig17(opts RunOpts) Table {
	return sysComparison(opts, "Fig 17: LLC dynamic energy (normalized to SRAM)",
		func(r SimRes) float64 { return r.LLCDynNJ })
}

// Fig18 regenerates paper Fig. 18: total energy (dynamic + leakage + DRAM)
// per workload, normalized to SRAM.
func Fig18(opts RunOpts) Table {
	return sysComparison(opts, "Fig 18: total energy consumption (normalized to SRAM)",
		func(r SimRes) float64 { return r.TotalJ })
}

// sysComparison runs all Fig 16 configurations and reports metric values
// normalized to the SRAM column, with capacity-sensitive workloads first.
// Every configuration's roster is enumerated into one job batch, so a
// parallel engine overlaps simulations across configurations, not just
// within one.
func sysComparison(opts RunOpts, title string, metric func(SimRes) float64) Table {
	opts = opts.withStreams()
	configs := fig16Configs()
	t := Table{Title: title}
	t.Header = append([]string{"workload", "class"}, labels(configs)...)
	roster := opts.workloads()
	var jobs []engine.Job
	for _, c := range configs {
		jobs = append(jobs, opts.simJobs(c.tech, c.scheme, c.ideal)...)
	}
	all := opts.runSims(jobs)
	results := make([][]SimRes, len(configs))
	for i := range configs {
		results[i] = all[i*len(roster) : (i+1)*len(roster)]
	}
	order := append(filterIdx(roster, true), filterIdx(roster, false)...)
	for _, wi := range order {
		row := []interface{}{roster[wi].Name, class(roster[wi])}
		base := metric(results[0][wi])
		for ci := range configs {
			row = append(row, metric(results[ci][wi])/base)
		}
		t.AddRow(row...)
	}
	return t
}

func labels(cs []sysConfig) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.label
	}
	return out
}

func class(w trace.Workload) string {
	if w.CapacitySensitive {
		return "cap-sensitive"
	}
	return "cap-insensitive"
}

func filterIdx(ws []trace.Workload, sensitive bool) []int {
	var out []int
	for i, w := range ws {
		if w.CapacitySensitive == sensitive {
			out = append(out, i)
		}
	}
	return out
}
