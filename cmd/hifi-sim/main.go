// Command hifi-sim runs one workload on the simulated memory hierarchy and
// reports timing, cache, shift, energy, and reliability statistics.
//
// Usage:
//
//	hifi-sim -workload canneal -tech racetrack -scheme adaptive
//	hifi-sim -workload streamcluster -tech sram
//	hifi-sim -workload ferret -tech racetrack -scheme pecco -accesses 500000
//
// Observability (see docs/observability.md):
//
//	hifi-sim -workload ferret -metrics-out run      # run.json + run.prom + run.manifest.json
//	hifi-sim -workload ferret -spans-out run        # run.spans.json + run.folded
//	hifi-sim -workload ferret -pprof localhost:6060 -progress 2s
//
// The run executes as one job of the experiment engine (docs/engine.md),
// so -cache-dir makes an identical re-run instant:
//
//	hifi-sim -workload ferret -cache-dir .hificache   # first run simulates
//	hifi-sim -workload ferret -cache-dir .hificache   # second run is a cache hit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/log"
	"racetrack/hifi/internal/trace"
)

// simView is the JSON-stable projection of a memsim.Result carrying
// every statistic this command prints, so a run served from the engine
// cache reports exactly what the original execution did.
type simView struct {
	Workload    string         `json:"workload"`
	Cycles      uint64         `json:"cycles"`
	Seconds     float64        `json:"seconds"`
	L1          cache.Stats    `json:"l1"`
	L2          cache.Stats    `json:"l2"`
	L3          cache.Stats    `json:"l3"`
	ShiftOps    uint64         `json:"shift_ops"`
	ShiftSteps  uint64         `json:"shift_steps"`
	ShiftCycles uint64         `json:"shift_cycles"`
	AvgShiftDst float64        `json:"avg_shift_distance"`
	SDCMTTF     engine.Float   `json:"sdc_mttf_s"` // +Inf when no failure mass accrued
	DUEMTTF     engine.Float   `json:"due_mttf_s"`
	Energy      energy.Account `json:"energy"`
}

func toView(r memsim.Result) simView {
	return simView{
		Workload:    r.Workload,
		Cycles:      r.Cycles,
		Seconds:     r.Seconds,
		L1:          r.L1,
		L2:          r.L2,
		L3:          r.L3,
		ShiftOps:    r.ShiftOps,
		ShiftSteps:  r.ShiftSteps,
		ShiftCycles: r.ShiftCycles,
		AvgShiftDst: r.AvgShiftDistance,
		SDCMTTF:     engine.Float(r.Tracker.SDCMTTF()),
		DUEMTTF:     engine.Float(r.Tracker.DUEMTTF()),
		Energy:      r.Energy,
	}
}

func main() {
	var (
		workload = flag.String("workload", "ferret", "PARSEC-like workload name")
		tech     = flag.String("tech", "racetrack", "LLC technology: sram | stt | racetrack")
		scheme   = flag.String("scheme", "adaptive", "protection: baseline | sed | secded | pecco | worst | adaptive")
		accesses = flag.Int("accesses", 200_000, "accesses per core")
		warmup   = flag.Int("warmup", 0, "warmup accesses per core excluded from the reported statistics")
		seed     = flag.Uint64("seed", 1, "trace seed")
		ideal    = flag.Bool("ideal", false, "remove shift latency (RM-Ideal)")
		progress = flag.Duration("progress", 5*time.Second, "progress-line interval (0 disables)")
	)
	obs := cliutil.NewObs("hifi-sim")
	engFlags := cliutil.AddEngineFlags(flag.CommandLine)
	faultFlags := cliutil.NewFaultFlags()
	flag.Parse()
	plan := faultFlags.Check("hifi-sim")
	// An unknown name, or a configuration memsim refuses, is bad input
	// like any bad flag: exit 2 before anything starts.
	w, t, s, err := resolve(*workload, *tech, *scheme)
	if err != nil {
		log.Errorf("hifi-sim: %v", err)
		os.Exit(2)
	}
	cfg := memsim.DefaultConfig(t, s)
	cfg.AccessesPerCore = *accesses
	cfg.WarmupAccessesPerCore = *warmup
	cfg.Seed = *seed
	cfg.Ideal = *ideal
	cfg.FaultPlan = plan
	if err := cfg.Validate(); err != nil {
		log.Errorf("hifi-sim: %v", err)
		os.Exit(2)
	}

	obs.EnableMetrics() // the progress line reads the run gauges
	ctx := obs.Start()
	eng, err := engFlags.Build(obs)
	if err != nil {
		log.Fatalf("hifi-sim: %v", err)
	}
	reg := obs.Reg
	cfg.Metrics = reg
	cfg.Sampler = obs.TS
	cfg.Events = obs.Events

	stopProgress := watchProgress(reg, *progress)
	start := time.Now()
	// The run is one engine job: with -cache-dir an identical invocation
	// is served from the content-addressed cache without simulating.
	job := engine.Job{
		Key:   cfg.Fingerprint(w),
		Label: fmt.Sprintf("%v/%v:%s", t, s, w.Name),
		Fn: func(jctx context.Context) (any, error) {
			r, err := memsim.RunCtx(jctx, w, cfg)
			if err != nil {
				return nil, err
			}
			return toView(r), nil
		},
	}
	rep, err := eng.Run(ctx, []engine.Job{job})
	stopProgress()
	if err != nil {
		log.Fatalf("hifi-sim: simulation: %v", err)
	}
	r, err := engine.Decode[simView](rep.Payloads[0])
	if err != nil {
		log.Fatalf("hifi-sim: %v", err)
	}
	if rep.CacheHits > 0 {
		log.Infof("served from result cache")
	}
	log.Debugf("simulated %d accesses in %v", cfg.AccessesPerCore*cfg.Cores,
		time.Since(start).Round(time.Millisecond))

	fmt.Printf("workload      %s (%s)\n", r.Workload, class(w))
	fmt.Printf("system        %s LLC, scheme %s, ideal=%v\n", t, s, *ideal)
	if plan != nil {
		fmt.Printf("faults        %d injector(s), plan seed %d\n", len(plan.Injectors), plan.Seed)
	}
	fmt.Printf("time          %d cycles = %.3f ms @2GHz\n", r.Cycles, r.Seconds*1e3)
	fmt.Printf("L1            %.2f%% miss (%d accesses)\n", 100*r.L1.MissRate(), r.L1.Hits+r.L1.Misses)
	fmt.Printf("L2            %.2f%% miss (%d accesses)\n", 100*r.L2.MissRate(), r.L2.Hits+r.L2.Misses)
	fmt.Printf("L3            %.2f%% miss (%d accesses)\n", 100*r.L3.MissRate(), r.L3.Hits+r.L3.Misses)
	if t == energy.Racetrack {
		fmt.Printf("shifts        %d ops, %d steps (avg %.2f), %d cycles\n",
			r.ShiftOps, r.ShiftSteps, r.AvgShiftDst, r.ShiftCycles)
		fmt.Printf("reliability   SDC MTTF %s, DUE MTTF %s\n",
			human(float64(r.SDCMTTF)), human(float64(r.DUEMTTF)))
	}
	fmt.Printf("energy        dynamic %.3f uJ (LLC %.3f uJ), leakage %.3f mJ, total %.3f mJ\n",
		r.Energy.DynamicNJ()/1e3, r.Energy.LLCDynamicNJ()/1e3,
		r.Energy.LeakageJ*1e3, r.Energy.TotalJ()*1e3)

	engFlags.Finish(eng)
	if err := obs.Finish(); err != nil {
		log.Fatalf("hifi-sim: %v", err)
	}
}

// watchProgress emits a periodic progress line (events/sec, ETA) from
// the run-progress gauges, which the simulator updates while in flight.
// The returned function stops the watcher.
func watchProgress(reg *telemetry.Registry, every time.Duration) func() {
	if every <= 0 {
		return func() {}
	}
	done := reg.Gauge(telemetry.MetricSimAccessesDone, "")
	total := reg.Gauge(telemetry.MetricSimAccessesTotal, "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		last, lastAt := 0.0, time.Now()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				d, t := done.Value(), total.Value()
				rate := (d - last) / now.Sub(lastAt).Seconds()
				last, lastAt = d, now
				eta := "?"
				if rate > 0 && t > d {
					eta = time.Duration(float64(time.Second) * (t - d) / rate).Round(time.Second).String()
				}
				pct := 0.0
				if t > 0 {
					pct = 100 * d / t
				}
				log.Infof("progress %.0f/%.0f accesses (%.1f%%), %.0f acc/s, ETA %s", d, t, pct, rate, eta)
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
	}
}

// resolve looks up the workload, technology and scheme names, naming the
// flag of the first it does not know.
func resolve(workload, tech, scheme string) (trace.Workload, energy.Tech, shiftctrl.Scheme, error) {
	w, err := cliutil.Workload(workload)
	if err != nil {
		return w, 0, 0, err
	}
	t, err := parseTech(tech)
	if err != nil {
		return w, 0, 0, fmt.Errorf("-tech %s: %v (sram | stt | racetrack)", tech, err)
	}
	s, err := shiftctrl.ParseScheme(scheme)
	if err != nil {
		return w, 0, 0, fmt.Errorf("-scheme %s: %v (baseline | sts | sed | secded | pecco | worst | adaptive)", scheme, err)
	}
	return w, t, s, nil
}

func parseTech(s string) (energy.Tech, error) {
	switch s {
	case "sram":
		return energy.SRAM, nil
	case "stt", "stt-ram", "sttram":
		return energy.STTRAM, nil
	case "racetrack", "rm", "dwm":
		return energy.Racetrack, nil
	default:
		return 0, fmt.Errorf("unknown technology %q", s)
	}
}

func class(w trace.Workload) string {
	if w.CapacitySensitive {
		return "capacity-sensitive"
	}
	return "capacity-insensitive"
}

func human(seconds float64) string {
	switch {
	case seconds >= mttf.SecondsPerYear:
		return fmt.Sprintf("%.3g years", mttf.Years(seconds))
	case seconds >= 86400:
		return fmt.Sprintf("%.3g days", seconds/86400)
	case seconds >= 1:
		return fmt.Sprintf("%.3g s", seconds)
	default:
		return fmt.Sprintf("%.3g us", seconds*1e6)
	}
}
