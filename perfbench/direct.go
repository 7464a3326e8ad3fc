package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"time"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/fidelity"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/trace"
)

// fig14Schemes are Fig 14's columns: the simulations one fig14 sweep runs
// per workload.
var fig14Schemes = []shiftctrl.Scheme{
	shiftctrl.Baseline, shiftctrl.PECCO, shiftctrl.PECCSAdaptive, shiftctrl.PECCSWorst,
}

// simItem is one simulation of a direct plan.
type simItem struct {
	w   trace.Workload
	cfg memsim.Config
	// key is the engine job key, the same one experiments derives.
	key   string
	label string
}

func newSimItem(w trace.Workload, cfg memsim.Config) simItem {
	return simItem{
		w: w, cfg: cfg, key: cfg.Fingerprint(w),
		label: fmt.Sprintf("%v/%v:%s", cfg.Tech, cfg.Scheme, w.Name),
	}
}

// directSession runs one simulation per op, serially. direct-rtm runs
// each as an engine job (the hifi-experiments path), direct-sram calls
// memsim.RunCtx (the hifi-sim and library path).
type directSession struct {
	p     params
	items []simItem
	// warmup is the simulation every setup runs: the plan's first item in
	// roster order, whatever order the seed shuffled the plan into, so
	// set-up time does not depend on the seed.
	warmup simItem
	// viaEngine selects the engine path; eng is the serial, uncached
	// engine hifi-experiments -jobs 1 builds.
	viaEngine bool
	eng       *engine.Engine
	// fig14 is the sweep whose job set the direct-rtm plan is.
	fig14 experiments.RunOpts
}

// planRNG derives a workload's input stream from the benchmark seed.
func planRNG(seed uint64, workload string) *rand.Rand {
	return rand.New(rand.NewPCG(seed, engine.SubSeed(seed, workload)))
}

// traceSeed draws a trace seed; 0 would mean "the default seed" to memsim.
func traceSeed(rng *rand.Rand) uint64 { return rng.Uint64()>>1 | 1 }

// directRTMPlan is fig14's job set on the full Table 4 hierarchy (128 MB
// racetrack LLC) at one seed-drawn trace seed, in seed-shuffled order,
// plus the set-up's warm-up item: the set's first in roster order.
func directRTMPlan(seed uint64, sz sizes) ([]simItem, simItem, experiments.RunOpts) {
	rng := planRNG(seed, "direct-rtm")
	opts := experiments.RunOpts{AccessesPerCore: sz.rtmAccesses, Seed: traceSeed(rng)}
	var items []simItem
	for _, w := range trace.PARSEC() {
		for _, s := range fig14Schemes {
			cfg := memsim.DefaultConfig(energy.Racetrack, s)
			cfg.AccessesPerCore = opts.AccessesPerCore
			cfg.Seed = opts.Seed
			items = append(items, newSimItem(w, cfg))
		}
	}
	warmup := items[0]
	shuffle(rng, items)
	return items, warmup, opts
}

// shuffle puts a plan in seed-drawn order.
func shuffle(rng *rand.Rand, items []simItem) {
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
}

// directSRAMPlan is every PARSEC workload on the full hierarchy with a 4 MB
// SRAM and a 32 MB STT-RAM LLC, each at its own seed-drawn trace seed,
// plus the warm-up item as for directRTMPlan.
func directSRAMPlan(seed uint64, sz sizes) ([]simItem, simItem) {
	rng := planRNG(seed, "direct-sram")
	var items []simItem
	for _, w := range trace.PARSEC() {
		for _, t := range []energy.Tech{energy.SRAM, energy.STTRAM} {
			cfg := memsim.DefaultConfig(t, shiftctrl.Baseline)
			cfg.AccessesPerCore = sz.sramAccesses
			cfg.Seed = traceSeed(rng)
			items = append(items, newSimItem(w, cfg))
		}
	}
	warmup := items[0]
	shuffle(rng, items)
	return items, warmup
}

func openDirectRTM(_ context.Context, p params) (session, error) {
	items, warmup, opts := directRTMPlan(p.seed, p.size)
	return &directSession{p: p, items: items, warmup: warmup, viaEngine: true, fig14: opts}, nil
}

func openDirectSRAM(_ context.Context, p params) (session, error) {
	items, warmup := directSRAMPlan(p.seed, p.size)
	return &directSession{p: p, items: items, warmup: warmup}, nil
}

// setup builds the engine and runs the warm-up simulation once, so the
// window starts with the heap grown and the code paths warm.
func (s *directSession) setup(ctx context.Context) error {
	if s.viaEngine {
		s.eng = engine.New(engine.Options{Workers: 1})
	}
	_, err := s.simulate(ctx, s.warmup)
	return err
}

func (s *directSession) teardown() { s.eng = nil }

func (s *directSession) digestItems() int { return len(s.items) }

func (s *directSession) op(ctx context.Context, n int) opRecord {
	item := n % len(s.items)
	rec := opRecord{n: n, item: item}
	octx, sp := telemetry.StartSpan(ctx, "op", telemetry.AInt("item", int64(item)))
	rec.start = time.Now()
	rec.out, rec.err = s.simulate(octx, s.items[item])
	rec.end = time.Now()
	sp.End()
	rec.lat = rec.end.Sub(rec.start)
	rec.cycle = rec.lat
	return rec
}

func (s *directSession) reference(ctx context.Context, item int) ([]byte, error) {
	return s.simulate(ctx, s.items[item])
}

// simulate runs one plan item and returns its canonical output: the
// engine's payload on the engine path, the same JSON projection of the
// result on the library path.
func (s *directSession) simulate(ctx context.Context, it simItem) ([]byte, error) {
	run := func(ctx context.Context) (any, error) {
		r, err := memsim.RunCtx(ctx, it.w, it.cfg)
		if err != nil {
			return nil, err
		}
		if err := checkResult(r); err != nil {
			return nil, fmt.Errorf("%s: %w", it.label, err)
		}
		return simRes(r), nil
	}
	if !s.viaEngine {
		res, err := run(ctx)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	rep, err := s.eng.Run(ctx, []engine.Job{{Key: it.key, Label: it.label, Fn: run}})
	if err != nil {
		return nil, err
	}
	return rep.Payloads[0], nil
}

// checkResult applies the invariants every simulation must satisfy: each
// core access is one L1 lookup, and only a racetrack LLC shifts, always
// at least once over a run.
func checkResult(r memsim.Result) error {
	want := uint64(r.Config.Cores * r.Config.AccessesPerCore)
	if got := r.L1.Hits + r.L1.Misses; got != want {
		return fmt.Errorf("L1 saw %d accesses, want %d", got, want)
	}
	if r.Cycles == 0 {
		return fmt.Errorf("zero cycles")
	}
	if rtm := r.Config.Tech == energy.Racetrack; rtm != (r.ShiftOps > 0) {
		return fmt.Errorf("%v LLC issued %d shift operations", r.Config.Tech, r.ShiftOps)
	}
	return nil
}

// simRes is the engine payload experiments builds from a memsim result.
func simRes(r memsim.Result) experiments.SimRes {
	return experiments.SimRes{
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

// verify checks direct-rtm's outputs against Fig 14's fidelity anchors.
// The window's payloads are stored under their engine keys in a fresh
// cache, and experiments.Run renders fig14 over it: every one of its
// simulations must be a cache hit (the plan is exactly fig14's job set),
// and all fig14 anchors must pass on the table it renders. A failure
// fails every op, since each contributed to the table.
func (s *directSession) verify(_ context.Context, recs []opRecord, outs map[int][]byte) ([]int, []error) {
	if !s.viaEngine {
		return nil, nil
	}
	err := s.checkFig14(outs)
	if err == nil {
		return nil, nil
	}
	bad := make([]int, len(recs))
	for i := range bad {
		bad[i] = i
	}
	return bad, []error{err}
}

func (s *directSession) checkFig14(outs map[int][]byte) error {
	dir, err := os.MkdirTemp(s.p.tmp, "fig14-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c, err := engine.OpenCache(dir, "")
	if err != nil {
		return err
	}
	for i, it := range s.items {
		if err := c.Put(engine.HashKey(c.Version(), it.key), outs[i]); err != nil {
			return err
		}
	}
	opts := s.fig14
	eng := engine.New(engine.Options{Workers: 1, Cache: c})
	opts.Eng = eng
	tab, err := experiments.Run("fig14", opts)
	if err != nil {
		return err
	}
	if n := eng.Status().Executed; n != 0 {
		return fmt.Errorf("fig14 ran %d simulations outside the plan", n)
	}
	sc := fidelity.Evaluate(fidelity.Anchors(), map[string]experiments.Table{"fig14": tab})
	checked := 0
	for _, a := range sc.Anchors {
		if a.Experiment != "fig14" {
			continue
		}
		checked++
		if a.Status != fidelity.Pass {
			return fmt.Errorf("fidelity anchor %s: %s (%s)", a.ID, a.Status, a.Detail)
		}
	}
	if checked == 0 {
		return fmt.Errorf("no fig14 fidelity anchors to check")
	}
	return nil
}

// layers reports the direct workload's per-layer metrics: where its op
// time went (from the window's spans) and the kernel replays of a
// seed-chosen sample of its simulations.
func (s *directSession) layers(ctx context.Context, w *window) (map[string]float64, error) {
	rng := planRNG(s.p.seed, "kernels")
	var ks []kernelItem
	for _, i := range rng.Perm(len(s.items))[:min(s.p.size.kernelItems, len(s.items))] {
		it := s.items[i]
		ks = append(ks, kernelItem{w: it.w, cfg: it.cfg})
	}
	vals, err := runKernels(ctx, ks)
	if err != nil {
		return nil, err
	}
	var opNS float64
	for _, r := range w.succeeded() {
		opNS += float64(r.lat)
	}
	memNS := windowSpanNS(w.spans, "memsim:")
	vals["memsim.share"] = memNS / opNS
	vals["engine.hit_frac"] = 0
	vals["engine.overhead_share"] = 0
	vals["engine.executed_per_op"] = 0
	if s.viaEngine {
		// Everything in an engine op outside the simulation is the
		// engine's: scheduling, payload encoding, resource accounting.
		vals["engine.overhead_share"] = (opNS - memNS) / opNS
		vals["engine.executed_per_op"] = 1
	}
	for _, k := range servedOnly {
		vals[k] = 0
	}
	hostMetrics(vals, w)
	return vals, nil
}

// servedOnly are the per-layer metrics of the serve layer, which the
// direct workloads bypass.
var servedOnly = []string{
	"serve.submit_share", "serve.queue_share", "serve.run_share",
	"serve.delivery_share", "serve.tables_share", "serve.deduped_frac",
	"serve.reconnects_per_job", "serve.retained_kb_per_job",
}

// windowSpanNS sums the durations of the spans named with prefix that ran
// inside a window op (the setups' warm-up ops are not counted).
func windowSpanNS(e telemetry.SpanExport, prefix string) float64 {
	byID := make(map[uint64]telemetry.SpanRecord, len(e.Spans))
	for _, r := range e.Spans {
		byID[r.ID] = r
	}
	var ns float64
	for _, r := range e.Spans {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		for p := r.Parent; p != 0; p = byID[p].Parent {
			if byID[p].Name == "op" {
				ns += float64(r.DurNS)
				break
			}
		}
	}
	return ns
}
