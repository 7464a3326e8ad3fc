package main

// Per-layer kernels. The traced run measures each layer from outside the
// program: it replays a sample of the workload's own simulations through
// the public entry points of the layers memsim's access loop calls (the
// trace generator, the cache model, the shift planner, the error model),
// times each, and weights the per-call costs by the counts memsim's Result
// reports. What the weighted costs do not explain is memsim's residual:
// its own loop, timing model and energy and reliability bookkeeping.

import (
	"context"
	"runtime"
	"sync"
	"time"

	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/trace"
)

// kernelItem is one simulation the traced run replays through the layer
// kernels, configured exactly as the workload runs it.
type kernelItem struct {
	w   trace.Workload
	cfg memsim.Config
}

// minKernelTime is how long each kernel timing is repeated for, so no
// number rests on a few microseconds of work.
const minKernelTime = 20 * time.Millisecond

// telemetryItems is how many sample simulations the attached-vs-detached
// telemetry comparison runs.
const telemetryItems = 2

// timeReps times run at least twice and until minKernelTime has passed;
// prepare runs untimed before each repetition.
func timeReps(prepare, run func()) (time.Duration, int) {
	var total time.Duration
	n := 0
	for n < 2 || total < minKernelTime {
		if prepare != nil {
			prepare()
		}
		t0 := time.Now()
		run()
		total += time.Since(t0)
		n++
	}
	return total, n
}

// sink keeps the error-model kernel's results live.
var sink float64

// kernelSums accumulates kernel measurements over the sample. Per-access
// costs are weighted by each item's accesses.
type kernelSums struct {
	accesses float64
	// memsim: simulated accesses and span time over its repetitions.
	memAccesses, measureNS, setupNS, runs, allocB, mallocs float64
	// Per-call kernel costs: time and calls.
	traceNS, traceCalls  float64
	cacheNS, cacheCalls  float64
	shiftNS, shifts      float64
	plannedOps, shiftMal float64
	errNS, errOps        float64
	// Counts from memsim's Results, per access, weighted.
	callsPerAccess, shiftOpsPerAccess float64
	// Weighted per-access contributions (ns) of each layer.
	traceC, cacheC, shiftC, errC float64
	// Telemetry comparison: extra ns per access, and accesses compared.
	attachedNS, contendedNS, telAccesses float64
}

// runKernels replays every item through the layer kernels and returns the
// kernel-derived per-layer metrics.
func runKernels(ctx context.Context, items []kernelItem) (map[string]float64, error) {
	var k kernelSums
	for i, it := range items {
		_, sp := telemetry.StartSpan(ctx, "kernel:"+it.w.Name,
			telemetry.A("tech", it.cfg.Tech.String()), telemetry.A("scheme", it.cfg.Scheme.String()))
		err := k.add(it, i < telemetryItems)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	memNS := k.measureNS / k.memAccesses
	explained := (k.traceC + k.cacheC + k.shiftC + k.errC) / k.accesses
	residual := memNS - explained
	return map[string]float64{
		"memsim.ns_per_access":              memNS,
		"memsim.setup_ms_per_run":           k.setupNS / k.runs / 1e6,
		"memsim.alloc_bytes_per_access":     k.allocB / k.memAccesses,
		"memsim.mallocs_per_access":         k.mallocs / k.memAccesses,
		"memsim.residual_ns_per_access":     residual,
		"memsim.residual_share":             residual / memNS,
		"trace.ns_per_access":               k.traceNS / k.traceCalls,
		"trace.share":                       k.traceC / k.accesses / memNS,
		"cache.ns_per_call":                 k.cacheNS / k.cacheCalls,
		"cache.calls_per_access":            k.callsPerAccess / k.accesses,
		"cache.share":                       k.cacheC / k.accesses / memNS,
		"shiftctrl.ns_per_shift":            k.shiftNS / k.shifts,
		"shiftctrl.ops_per_shift":           k.plannedOps / k.shifts,
		"shiftctrl.allocs_per_shift":        k.shiftMal / k.shifts,
		"shiftctrl.ops_per_access":          k.shiftOpsPerAccess / k.accesses,
		"shiftctrl.share":                   k.shiftC / k.accesses / memNS,
		"errmodel.ns_per_op":                k.errNS / k.errOps,
		"errmodel.share":                    k.errC / k.accesses / memNS,
		"telemetry.attached_ns_per_access":  k.attachedNS / k.telAccesses,
		"telemetry.contended_ns_per_access": k.contendedNS / k.telAccesses,
	}, nil
}

// add runs one item's kernels.
func (k *kernelSums) add(it kernelItem, compareTelemetry bool) error {
	acc := float64(it.cfg.Cores * it.cfg.AccessesPerCore)

	// memsim itself, timed by the setup and measure spans it records, with
	// its heap activity from MemStats around each run.
	col := telemetry.NewSpanCollector(nil)
	mctx := telemetry.WithCollector(context.Background(), col)
	var r memsim.Result
	var err error
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, n := timeReps(nil, func() {
		if err == nil {
			r, err = memsim.RunCtx(mctx, it.w, it.cfg)
		}
	})
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	for _, sp := range col.Export().Spans {
		switch sp.Name {
		case "measure":
			k.measureNS += float64(sp.DurNS)
		case "setup":
			k.setupNS += float64(sp.DurNS)
		}
	}
	k.runs += float64(n)
	k.memAccesses += acc * float64(n)
	k.allocB += float64(ms1.TotalAlloc - ms0.TotalAlloc)
	k.mallocs += float64(ms1.Mallocs - ms0.Mallocs)
	cfg := r.Config // defaults filled in
	k.accesses += acc
	calls := float64(r.L1.Hits + r.L1.Misses + r.L2.Hits + r.L2.Misses + r.L3.Hits + r.L3.Misses)
	k.callsPerAccess += calls
	k.shiftOpsPerAccess += float64(r.ShiftOps)

	// The trace generator: the exact per-core streams the run consumed.
	streams := make([][]trace.Access, cfg.Cores)
	for c := range streams {
		streams[c] = make([]trace.Access, cfg.AccessesPerCore)
	}
	d, n := timeReps(nil, func() {
		for c := range streams {
			g := trace.NewGenerator(it.w, c, cfg.Seed)
			for i := range streams[c] {
				streams[c][i] = g.Next()
			}
		}
	})
	perAccess := float64(d) / (acc * float64(n))
	k.traceNS += float64(d)
	k.traceCalls += acc * float64(n)
	k.traceC += perAccess * acc

	// The cache model: those streams through fresh L1 -> L2 -> L3 chains.
	var h *hierarchy
	var refs []l3Ref
	d, n = timeReps(func() { h = newHierarchy(cfg) }, func() { refs = h.replay(streams) })
	perCall := float64(d) / float64(h.calls*n)
	k.cacheNS += float64(d)
	k.cacheCalls += float64(h.calls * n)
	k.cacheC += perCall * calls

	// The shift planner: the L3 (set, way) stream through the racetrack
	// head state and the scheme's planner. A non-racetrack LLC never
	// shifts; its stream is planned under p-ECC-S adaptive so the kernel
	// cost is still measured, and its contribution is zero.
	scheme := cfg.Scheme
	if cfg.Tech != energy.Racetrack {
		scheme = shiftctrl.PECCSAdaptive
	}
	plan := newShiftPlanner(cfg, scheme)
	cyclesPerAccess := float64(r.Cycles) / acc
	var rtm *cache.RTMArray
	fresh := func() { rtm = cache.NewRTMArray(cfg.Geometry, cfg.L3Capacity) }
	fresh()
	shifts, ops := replayShifts(rtm, refs, cfg, plan, cyclesPerAccess, true)
	fresh()
	runtime.ReadMemStats(&ms0)
	replayShifts(rtm, refs, cfg, plan, cyclesPerAccess, false)
	runtime.ReadMemStats(&ms1)
	k.shiftMal += float64(ms1.Mallocs - ms0.Mallocs)
	d, n = timeReps(fresh, func() { replayShifts(rtm, refs, cfg, plan, cyclesPerAccess, false) })
	k.shiftNS += float64(d) / float64(n)
	k.shifts += float64(shifts)
	k.plannedOps += float64(len(ops))
	if cfg.Tech == energy.Racetrack && len(refs) > 0 {
		k.shiftC += float64(d) / float64(n) / float64(len(refs)) * float64(r.L3.Hits+r.L3.Misses)
	}

	// The error model: the reliability accounting memsim does per planned
	// operation.
	em := errmodel.Model{}
	d, n = timeReps(nil, func() {
		for _, o := range ops {
			sdc, due := scheme.FailureRates(em, o)
			sink += sdc + due + em.K1Rate(o)
		}
	})
	if len(ops) > 0 {
		perOp := float64(d) / float64(len(ops)*n)
		k.errNS += float64(d)
		k.errOps += float64(len(ops) * n)
		k.errC += perOp * float64(r.ShiftOps)
	}

	if compareTelemetry {
		attached, contended, err := telemetryCost(it)
		if err != nil {
			return err
		}
		k.attachedNS += attached * acc
		k.contendedNS += contended * acc
		k.telAccesses += acc
	}
	return nil
}

// hierarchy is the cache model in memsim's shape: a private L1 per core,
// an L2 per core pair, one shared L3.
type hierarchy struct {
	l1, l2 []*cache.Cache
	l3     *cache.Cache
	calls  int
}

func newHierarchy(cfg memsim.Config) *hierarchy {
	h := &hierarchy{l3: cache.New(cfg.L3Capacity, cfg.L3Ways, trace.LineBytes)}
	for c := 0; c < cfg.Cores; c++ {
		h.l1 = append(h.l1, cache.New(cfg.L1Capacity, cfg.L1Ways, trace.LineBytes))
	}
	for c := 0; c < (cfg.Cores+1)/2; c++ {
		h.l2 = append(h.l2, cache.New(cfg.L2Capacity, cfg.L2Ways, trace.LineBytes))
	}
	return h
}

// l3Ref is one L3 access: the (set, way) it touched and the global access
// index it happened at.
type l3Ref struct {
	set, way int32
	at       int64
}

// replay drives the streams through the hierarchy with memsim's
// miss/writeback call structure, interleaving cores round-robin (memsim
// orders them by simulated time, which the kernel does not model). It
// returns the L3 accesses in order.
func (h *hierarchy) replay(streams [][]trace.Access) []l3Ref {
	refs := make([]l3Ref, 0, len(streams[0]))
	h.calls = 0
	l3 := func(addr uint64, write bool, at int) {
		res := h.l3.Access(addr, write)
		h.calls++
		refs = append(refs, l3Ref{set: int32(res.Set), way: int32(res.Way), at: int64(at)})
	}
	cores := len(streams)
	for i := range streams[0] {
		for c, s := range streams {
			a := s[i]
			at := i*cores + c
			h.calls++
			r1 := h.l1[c].Access(a.Addr, a.Write)
			if r1.Hit {
				continue
			}
			l2 := h.l2[c/2]
			if r1.Writeback {
				l2.Access(r1.EvictedAddr, true)
				h.calls++
			}
			h.calls++
			r2 := l2.Access(a.Addr, a.Write)
			if r2.Hit {
				continue
			}
			if r2.Writeback {
				l3(r2.EvictedAddr, true, at)
			}
			l3(a.Addr, a.Write, at)
		}
	}
	return refs
}

// shiftPlanner splits a shift distance into operations.
type shiftPlanner func(dist int, intervalCycles uint64) []int

// newShiftPlanner builds the scheme's planner through shiftctrl's public
// API, mirroring how memsim plans each LLC shift: p-ECC-O moves one step
// per operation, p-ECC-S worst plans for the LLC's peak access intensity,
// p-ECC-S adaptive looks the interval up in the adapter table, and every
// other scheme shifts the whole distance at once.
func newShiftPlanner(cfg memsim.Config, scheme shiftctrl.Scheme) shiftPlanner {
	maxDist := max(cfg.Geometry.SegLen-1, 1)
	p := shiftctrl.NewPlanner(errmodel.Model{}, shiftctrl.DefaultTiming(), maxDist, maxDist)
	stripes := cfg.Geometry.StripesPerGroup
	switch scheme {
	case shiftctrl.PECCO:
		return func(d int, _ uint64) []int {
			seq := make([]int, d)
			for i := range seq {
				seq[i] = 1
			}
			return seq
		}
	case shiftctrl.PECCSWorst:
		// Four banks, each taking one access per read occupancy.
		peak := 4 * cfg.ClockHz / float64(energy.L3(energy.Racetrack).ReadCycles)
		return func(d int, _ uint64) []int {
			return shiftctrl.WorstCaseSequence(p, d, peak, cfg.TargetDUE, stripes)
		}
	case shiftctrl.PECCSAdaptive:
		return shiftctrl.NewAdapter(p, cfg.ClockHz, cfg.TargetDUE, stripes).SequenceFor
	default:
		return func(d int, _ uint64) []int { return []int{d} }
	}
}

// replayShifts aligns the racetrack heads for every L3 access in refs.
// The interval since the previous shift is estimated from the global
// access index at the run's mean cycles per access. With record it
// returns the number of shifts and every planned operation's size.
func replayShifts(rtm *cache.RTMArray, refs []l3Ref, cfg memsim.Config, plan shiftPlanner,
	cyclesPerAccess float64, record bool) (shifts int, ops []int) {
	var last int64
	for _, ref := range refs {
		g, d, dir := rtm.AccessDistance(int(ref.set), int(ref.way), cfg.L3Ways)
		if d == 0 {
			rtm.MoveHead(g, 0, dir, 0)
			continue
		}
		seq := plan(d, uint64(float64(ref.at-last)*cyclesPerAccess))
		last = ref.at
		rtm.MoveHead(g, d, dir, len(seq))
		if record {
			shifts++
			ops = append(ops, seq...)
		}
	}
	return shifts, ops
}

// telemetryCost compares the item's simulation with and without a metrics
// registry attached: in one goroutine, and in two goroutines sharing one
// registry (the served case, where concurrent jobs update the same
// counters). It returns the extra ns per access of each.
func telemetryCost(it kernelItem) (attached, contended float64, err error) {
	acc := float64(it.cfg.Cores * it.cfg.AccessesPerCore)
	detachedCfg, attachedCfg := it.cfg, it.cfg
	detachedCfg.Metrics = nil
	attachedCfg.Metrics = telemetry.NewRegistry()
	var mu sync.Mutex
	sim := func(cfg memsim.Config, parallel int) time.Duration {
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < parallel; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, e := memsim.Run(it.w, cfg); e != nil {
					mu.Lock()
					err = e
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return time.Since(t0)
	}
	// Alternate the sides so drift on a shared host hits both equally.
	var d1, a1, d2, a2 time.Duration
	reps := 0
	for ; reps < 3 || d1+a1 < 5*minKernelTime; reps++ {
		d1 += sim(detachedCfg, 1)
		a1 += sim(attachedCfg, 1)
		d2 += sim(detachedCfg, 2)
		a2 += sim(attachedCfg, 2)
		if err != nil {
			return 0, 0, err
		}
	}
	runs := float64(reps)
	return float64(a1-d1) / (runs * acc), float64(a2-d2) / (runs * acc), nil
}

// hostMetrics adds the noise diagnostics every traced run reports.
func hostMetrics(vals map[string]float64, w *window) {
	vals["host.cpu_util"] = w.cpuS / w.seconds()
	vals["host.gc_cycles"] = float64(w.gcCycles)
}
