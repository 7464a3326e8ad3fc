// Package memsim is the trace-driven multi-core memory-hierarchy simulator
// standing in for the paper's gem5 setup (Table 4): four in-order 2 GHz
// cores with private L1s, one L2 per core pair, and a shared L3 whose
// technology (SRAM / STT-RAM / racetrack) and racetrack protection scheme
// are configurable. It reports execution time, per-level cache statistics,
// shift behaviour, dynamic and leakage energy, and expected SDC/DUE counts
// for MTTF computation.
package memsim

import (
	"context"
	"fmt"

	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/faults"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/timeseries"
	"racetrack/hifi/internal/trace"
)

// Config selects the simulated system.
type Config struct {
	Cores    int
	ClockHz  float64
	Tech     energy.Tech
	Scheme   shiftctrl.Scheme // racetrack protection (ignored for SRAM/STT)
	Ideal    bool             // racetrack with shift latency removed (RM-Ideal)
	Geometry cache.RTMGeometry
	// AccessesPerCore is the trace length driven through each core; 0
	// means the default, 200,000, and RunCtx rejects a negative count.
	AccessesPerCore int
	// WarmupAccessesPerCore runs that many leading accesses per core as a
	// cache-warming phase: the hierarchy is exercised normally, then all
	// Result statistics (cache stats, shift counts, energy, reliability
	// exposure, cycles) are reset at the phase boundary so the reported
	// numbers cover only the measured window. Telemetry counters are
	// monotonic and keep accumulating across both phases; the boundary is
	// visible there through the hifi_sim_phase gauge, the warmup-access
	// counter, and the warmup/measure spans. Must be < AccessesPerCore;
	// 0 (the default) disables the phase.
	WarmupAccessesPerCore int
	Seed                  uint64
	// TargetDUE is the safe-distance reliability target (seconds).
	TargetDUE float64
	// Capacity overrides for scaled-down testing; zero means Table 4.
	L1Capacity, L2Capacity, L3Capacity int64
	// Associativity (Table 4 defaults when zero).
	L1Ways, L2Ways, L3Ways int
	// Sources optionally replaces the synthetic generators with recorded
	// access streams, one per core: a trace.Replay of the records
	// trace.ReadTrace read, which never wraps, so it must hold at least
	// AccessesPerCore records. When set it must have Cores entries, none
	// nil; RunCtx rejects any other list. Like the generators they
	// replace, the sources are drawn ahead of the access loop, on a
	// goroutine RunCtx starts and waits for (see Source), so no two cores
	// may share one.
	Sources []Source
	// EagerHead returns every stripe group's head to offset 0 after each
	// access (off the critical path), instead of leaving it where the
	// access put it (lazy, the default). Eager pays extra movement and
	// error exposure but makes the next access's distance predictable —
	// the head-management trade-off studied by prior racetrack work the
	// paper builds on.
	EagerHead bool
	// PromoEntries configures a shift-aware promotion buffer of that many
	// 64-byte entries in front of the racetrack data array (the STAG-style
	// structure of [43]); 0 disables it. Hits in the buffer skip the
	// alignment shift entirely.
	PromoEntries int
	// Mix optionally assigns a different workload to each core
	// (multiprogrammed mode); when set it must have Cores entries (RunCtx
	// rejects any other count) and the workload passed to Run is used
	// only for labeling. Each program gets
	// a disjoint address-space slice so the shared LLC sees true
	// multiprogram contention.
	Mix []trace.Workload
	// FaultPlan optionally runs the racetrack array under an off-nominal
	// device regime (internal/faults): each LLC shift operation is
	// modulated by the plan's injectors before its reliability exposure
	// is accounted. Nil (or an empty plan) is the nominal device and is
	// provably zero-cost: results and fingerprints are byte-identical to
	// a config without the field. The plan is part of the fingerprint,
	// so cached results are keyed by the regime that produced them.
	FaultPlan *faults.Plan
	// Metrics optionally receives named event series from every level of
	// the simulated hierarchy (see docs/observability.md). The run counts
	// in plain fields and publishes their gains to the registry at the
	// Sampler's window boundaries (every timeseries.DefaultEvery accesses
	// without one), at phase ends and at run end, so a snapshot taken
	// from another goroutine mid-run trails the run by at most one
	// publish interval. Nil publishes nothing.
	Metrics *telemetry.Registry
	// Sampler optionally cuts the Metrics registry's series into
	// windows on the simulated-access clock: each publish ticks it by
	// the accesses since the previous one, landing on its window
	// boundaries, the setup/warmup/measure phases mark their windows,
	// and phase boundaries force a cut so warmup and measurement never
	// share a window (see docs/observability.md). Nil disables
	// windowed sampling.
	Sampler *timeseries.Sampler
	// Events optionally receives run.phase events at the warmup/measure
	// boundaries and fault-window transitions from the device plane
	// (docs/events.md). Nil disables emission. Like the other
	// observability fields, Events is excluded from the fingerprint.
	Events *events.Bus
}

// Source is any per-core access stream: the synthetic trace.Generator and
// the recorded trace.Replay both satisfy it. A run draws each core's
// source exactly AccessesPerCore times, in order, ahead of the access
// loop: a goroutine of memsim's own calls Next while the loop runs on the
// caller's, and it has stopped by the time RunCtx returns. Its draws do
// not interleave the cores as the loop does, so a source must never be
// shared between cores. A panic in Next is re-raised, with the same
// value, on the goroutine that called RunCtx.
type Source interface {
	Next() trace.Access
}

// offsetSource relocates a stream into its own address-space slice for
// multiprogrammed runs.
type offsetSource struct {
	inner Source
	base  uint64
}

// Next implements Source.
func (o *offsetSource) Next() trace.Access {
	a := o.inner.Next()
	a.Addr += o.base
	return a
}

// DefaultCores is the core count of the paper's Table 4 system, the one
// a Config with Cores 0 simulates.
const DefaultCores = 4

// DefaultConfig returns the paper's Table 4 system for the given LLC
// technology and scheme.
func DefaultConfig(t energy.Tech, s shiftctrl.Scheme) Config {
	return Config{
		Cores:           DefaultCores,
		ClockHz:         2e9,
		Tech:            t,
		Scheme:          s,
		Geometry:        cache.DefaultRTM(),
		AccessesPerCore: 200_000,
		Seed:            1,
		TargetDUE:       10 * mttf.SecondsPerYear,
	}
}

func (c *Config) fillDefaults() {
	if c.Cores == 0 {
		c.Cores = DefaultCores
	}
	if c.ClockHz == 0 {
		c.ClockHz = 2e9
	}
	if c.L1Capacity == 0 {
		c.L1Capacity = energy.L1().CapacityB / 2 // data side of the split L1
	}
	if c.L2Capacity == 0 {
		c.L2Capacity = energy.L2().CapacityB
	}
	if c.L3Capacity == 0 {
		c.L3Capacity = energy.L3(c.Tech).CapacityB
	}
	if c.L1Ways == 0 {
		c.L1Ways = 2
	}
	if c.L2Ways == 0 {
		c.L2Ways = 4
	}
	if c.L3Ways == 0 {
		c.L3Ways = 16
	}
	if c.Geometry.StripesPerGroup == 0 {
		c.Geometry = cache.DefaultRTM()
	}
	if c.TargetDUE == 0 {
		c.TargetDUE = 10 * mttf.SecondsPerYear
	}
	if c.AccessesPerCore == 0 {
		c.AccessesPerCore = 200_000
	}
}

// Validate reports why RunCtx would refuse the configuration, with
// RunCtx's own message, or nil; zero fields count as their defaults.
// It is cheap and deterministic, so a caller can refuse bad input before
// anything starts (hifi-sim exits 2 on it), instead of learning of it
// from a failed engine job.
func (c Config) Validate() error {
	c.fillDefaults()
	if c.Cores < 1 {
		return fmt.Errorf("memsim: need at least one core")
	}
	if c.AccessesPerCore < 0 {
		return fmt.Errorf("memsim: accesses per core (%d) must not be negative", c.AccessesPerCore)
	}
	if c.Sources != nil && len(c.Sources) != c.Cores {
		return fmt.Errorf("memsim: %d sources for %d cores", len(c.Sources), c.Cores)
	}
	for i, src := range c.Sources {
		if src == nil {
			return fmt.Errorf("memsim: source %d is nil", i)
		}
	}
	if c.Mix != nil && len(c.Mix) != c.Cores {
		return fmt.Errorf("memsim: %d mix workloads for %d cores", len(c.Mix), c.Cores)
	}
	if w := c.WarmupAccessesPerCore; w != 0 && (w < 0 || w >= c.AccessesPerCore) {
		return fmt.Errorf("memsim: warmup accesses (%d) must be in [0, accesses per core = %d)",
			w, c.AccessesPerCore)
	}
	if err := c.FaultPlan.Validate(); err != nil {
		return fmt.Errorf("memsim: %w", err)
	}
	if err := c.checkHierarchy(); err != nil {
		return fmt.Errorf("memsim: %w", err)
	}
	return nil
}

// checkHierarchy reports a cache level, or a racetrack array, that the
// cache package cannot build.
func (c *Config) checkHierarchy() error {
	for _, l := range [...]struct {
		name     string
		capacity int64
		ways     int
	}{{"L1", c.L1Capacity, c.L1Ways}, {"L2", c.L2Capacity, c.L2Ways}, {"L3", c.L3Capacity, c.L3Ways}} {
		if err := cache.CheckGeometry(l.capacity, l.ways, trace.LineBytes); err != nil {
			return fmt.Errorf("%s: %w", l.name, err)
		}
	}
	if c.Tech == energy.Racetrack {
		return c.Geometry.CheckCapacity(c.L3Capacity)
	}
	return nil
}

// Result reports one simulation run.
type Result struct {
	Workload string
	Config   Config

	Cycles  uint64
	Seconds float64

	L1 cache.Stats // aggregated over cores
	L2 cache.Stats // aggregated over L2s
	L3 cache.Stats

	ShiftOps         uint64
	ShiftSteps       uint64
	ShiftCycles      uint64
	AvgShiftDistance float64

	Energy  energy.Account
	Tracker mttf.Tracker
}

// IPCProxy returns accesses per cycle as a crude throughput proxy.
func (r Result) IPCProxy() float64 {
	if r.Cycles == 0 {
		return 0
	}
	total := float64(r.L1.Hits + r.L1.Misses)
	return total / float64(r.Cycles)
}

// Run simulates one workload on the configured system.
func Run(w trace.Workload, cfg Config) (Result, error) {
	return RunCtx(context.Background(), w, cfg)
}

// RunCtx is Run with hierarchical span instrumentation: when ctx carries a
// telemetry.SpanCollector, the run is recorded as a "memsim:<workload>"
// span with "setup", "warmup" (if configured), and "measure" children.
// With no collector in ctx, the span calls reduce to a few context
// lookups per run — they are nowhere near the per-access hot path.
func RunCtx(ctx context.Context, w trace.Workload, cfg Config) (Result, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	ctx, sp := telemetry.StartSpan(ctx, "memsim:"+w.Name,
		telemetry.A("tech", cfg.Tech.String()),
		telemetry.A("scheme", cfg.Scheme.String()))
	defer sp.End()
	sctx, setup := telemetry.StartSpan(ctx, "setup")
	s := newSystem(sctx, w, cfg)
	defer s.feed.stop()
	setup.End()
	s.run(ctx)
	return s.result(), nil
}

// system holds the live simulation state.
type system struct {
	cfg    Config
	w      trace.Workload
	feed   feed     // every core's accesses, drawn ahead of the loop
	cycles []uint64 // per-core current cycle
	left   []int    // accesses remaining per core

	l1 []*cache.Cache
	l2 []*cache.Cache
	l3 *cache.Cache

	rtm    *cache.RTMArray
	promo  *promoBuffer
	plans  *shiftctrl.Plans
	timing shiftctrl.Timing
	em     errmodel.Model
	faults *faults.Device
	shiftE energy.ShiftCosts

	lastShiftCycle uint64 // LLC-timeline cycle of the previous L3 shift
	shiftCycles    uint64
	// warmupCycles is the per-run timeline position at the warmup/measure
	// boundary; Result cycle counts are relative to it.
	warmupCycles uint64
	// l3FreeAt serializes each LLC bank: the earliest cycle the next
	// access to that bank may start. Occupancy equals the access latency,
	// so the LLC's peak intensity is banks * clock / occupancy.
	l3FreeAt []uint64
	// memFreeAt models DRAM channel bandwidth: one 64B line per 10
	// cycles at 2 GHz matches the Table 4 dual-channel 12.8 GB/s.
	memFreeAt uint64

	acct    energy.Account
	tracker mttf.Tracker

	costsL1, costsL2, costsL3, costsMem energy.CacheCosts

	// Plain telemetry counts beside the Result record, published by
	// publish (publish.go). ops[n] counts every accounted shift
	// operation of n steps, pathOps[n] those on an access's critical
	// path, checks the p-ECC checks among them; expCorr sums the
	// expected p-ECC corrections.
	ops, pathOps             []uint64
	checks                   uint64
	expCorr                  float64
	promoFlushes             uint64
	faultActive, faultForced uint64
	accesses                 uint64 // accesses simulated so far

	// attached is set when the run has a registry or sampler to feed;
	// publishAt is the access count of its next publish.
	attached  bool
	publishAt uint64
	meter     meter

	sampler *timeseries.Sampler
}

// newSystem builds the hierarchy and, last, starts the feed; the caller
// stops it.
func newSystem(ctx context.Context, w trace.Workload, cfg Config) *system {
	s := &system{cfg: cfg, w: w}
	s.cycles = make([]uint64, cfg.Cores)
	s.left = make([]int, cfg.Cores)
	s.l1 = make([]*cache.Cache, cfg.Cores)
	for i := range s.l1 {
		s.l1[i] = cache.New(cfg.L1Capacity, cfg.L1Ways, trace.LineBytes)
	}
	nl2 := (cfg.Cores + 1) / 2
	s.l2 = make([]*cache.Cache, nl2)
	for i := range s.l2 {
		s.l2[i] = cache.New(cfg.L2Capacity, cfg.L2Ways, trace.LineBytes)
	}
	s.l3 = cache.New(cfg.L3Capacity, cfg.L3Ways, trace.LineBytes)
	s.l3FreeAt = make([]uint64, l3Banks)

	s.costsL1 = energy.L1()
	s.costsL2 = energy.L2()
	s.costsL3 = energy.L3(cfg.Tech)
	s.costsMem = energy.DRAM()

	if cfg.Tech == energy.Racetrack {
		s.rtm = cache.NewRTMArray(cfg.Geometry, cfg.L3Capacity)
		s.timing = shiftctrl.DefaultTiming()
		s.em = errmodel.Model{}
		// The plan was validated by RunCtx; New on a valid plan cannot
		// fail, and a nil plan yields a nil (free) device.
		s.faults, _ = faults.New(cfg.FaultPlan)
		s.faults.SetEvents(cfg.Events, "memsim:"+w.Name)
		maxDist := cfg.Geometry.SegLen - 1
		if maxDist < 1 {
			maxDist = 1
		}
		// Planning precomputes safe-distance and sequence tables from the
		// error model — the run's calibration cost, attributed to its own
		// span.
		_, cal := telemetry.StartSpan(ctx, "errmodel-calibration")
		s.plans = shiftctrl.NewPlans(cfg.Scheme, s.em, maxDist, cfg.ClockHz,
			s.maxIntensity(), cfg.TargetDUE, cfg.Geometry.StripesPerGroup)
		cal.End()
		s.shiftE = energy.DefaultShift()
		s.promo = newPromoBuffer(cfg.PromoEntries)
		s.ops = make([]uint64, maxDist+1)
		s.pathOps = make([]uint64, maxDist+1)
	}
	s.sampler = cfg.Sampler
	s.sampler.Mark("memsim:" + w.Name + ":setup")
	s.attached = cfg.Metrics != nil || cfg.Sampler != nil
	if s.attached {
		s.meter = s.newMeter(cfg.Metrics)
		s.meter.accessesTotal.Set(float64(cfg.AccessesPerCore * cfg.Cores))
	}
	s.schedule()
	s.feed.start(w, cfg)
	return s
}

// run drives all cores to completion in global time order, as a warmup
// phase (optional) followed by the measured phase. The boundary resets
// every Result statistic, so warmup traffic only pre-fills the hierarchy.
func (s *system) run(ctx context.Context) {
	warm := s.cfg.WarmupAccessesPerCore
	if warm > 0 {
		s.meter.phase.Set(0)
		s.sampler.Mark("memsim:" + s.w.Name + ":warmup")
		s.cfg.Events.Emit(events.Event{
			Type: events.RunPhase, Name: "memsim:" + s.w.Name + "/warmup",
			N: int64(warm * s.cfg.Cores),
		})
		_, sp := telemetry.StartSpan(ctx, "warmup",
			telemetry.AInt("accesses", int64(warm*s.cfg.Cores)))
		s.setBudget(warm)
		s.drive()
		s.publish()
		sp.End()
		s.meter.warmupDone.Add(float64(warm * s.cfg.Cores))
		s.resetMeasurement()
		s.rebase()
		// Close the warmup window so measured traffic never shares one.
		s.sampler.Cut()
	}
	s.meter.phase.Set(1)
	s.sampler.Mark("memsim:" + s.w.Name + ":measure")
	s.cfg.Events.Emit(events.Event{
		Type: events.RunPhase, Name: "memsim:" + s.w.Name + "/measure",
		N: int64((s.cfg.AccessesPerCore - warm) * s.cfg.Cores),
	})
	_, sp := telemetry.StartSpan(ctx, "measure",
		telemetry.AInt("accesses", int64((s.cfg.AccessesPerCore-warm)*s.cfg.Cores)))
	s.setBudget(s.cfg.AccessesPerCore - warm)
	s.drive()
	s.publish()
	sp.End()
	s.sampler.Cut()
}

// setBudget gives every core n more accesses to execute.
func (s *system) setBudget(n int) {
	for i := range s.left {
		s.left[i] = n
	}
}

// drive executes accesses in global time order until every core's budget
// is spent.
func (s *system) drive() {
	for {
		core := -1
		var min uint64 = ^uint64(0)
		for i := range s.cycles {
			if s.left[i] > 0 && s.cycles[i] < min {
				min = s.cycles[i]
				core = i
			}
		}
		if core < 0 {
			break
		}
		s.step(core)
	}
}

// resetMeasurement zeroes every statistic that feeds Result at the
// warmup/measure boundary. Head positions, promotion-buffer contents,
// adapter history, and the monotonic telemetry series deliberately
// survive: the warmed state is the point of the phase.
func (s *system) resetMeasurement() {
	s.warmupCycles = s.maxCycles()
	for _, c := range s.l1 {
		c.Stats = cache.Stats{}
	}
	for _, c := range s.l2 {
		c.Stats = cache.Stats{}
	}
	s.l3.Stats = cache.Stats{}
	if s.rtm != nil {
		s.rtm.ShiftOps = 0
		s.rtm.ShiftSteps = 0
		s.rtm.ZeroShiftAccesses = 0
	}
	s.shiftCycles = 0
	s.acct = energy.Account{}
	s.tracker = mttf.Tracker{}
}

// maxCycles returns the leading core's timeline position.
func (s *system) maxCycles() uint64 {
	var max uint64
	for _, c := range s.cycles {
		if c > max {
			max = c
		}
	}
	return max
}

// step executes one access on the chosen core.
func (s *system) step(core int) {
	a := s.feed.next(core)
	s.left[core]--
	s.cycles[core] += uint64(a.Gap)

	lat := s.accessL1(core, a.Addr, a.Write)
	s.cycles[core] += uint64(lat)
	if s.accesses++; s.accesses == s.publishAt {
		s.publish()
	}
}

// accessL1 runs the full hierarchy for one reference and returns latency in
// cycles.
func (s *system) accessL1(core int, addr uint64, write bool) int {
	l1 := s.l1[core]
	res := l1.Access(addr, write)
	lat := s.costsL1.ReadCycles
	s.acct.L1NJ += s.costsL1.ReadNJ
	if res.Hit {
		return lat
	}
	// L1 miss: dirty victim writes back to L2.
	l2 := s.l2[core/2]
	if res.Writeback {
		l2.Access(res.EvictedAddr, true)
		s.acct.L2NJ += s.costsL2.WriteNJ
	}
	lat += s.accessL2(core, l2, addr, write, s.cycles[core]+uint64(lat))
	return lat
}

func (s *system) accessL2(core int, l2 *cache.Cache, addr uint64, write bool, now uint64) int {
	res := l2.Access(addr, write)
	lat := s.costsL2.ReadCycles
	s.acct.L2NJ += s.costsL2.ReadNJ
	if res.Hit {
		return lat
	}
	if res.Writeback {
		s.accessL3(core, res.EvictedAddr, true, now+uint64(lat))
		// Writeback latency is off the critical path; energy and port
		// occupancy are counted in accessL3.
	}
	lat += s.accessL3(core, addr, write, now+uint64(lat))
	return lat
}

// l3Banks is the LLC banking degree: four independently-ported banks.
const l3Banks = 4

// dramOccupancy is the DRAM channel occupancy per 64-byte line: 10 cycles
// at 2 GHz is the Table 4 dual-channel 12.8 GB/s.
const dramOccupancy = 10

// accessL3 performs an L3 access including racetrack shifting and per-bank
// queueing, returning its latency contribution.
func (s *system) accessL3(core int, addr uint64, write bool, now uint64) int {
	res := s.l3.Access(addr, write)
	lat := 0
	// Wait for the addressed bank.
	bank := res.Set % l3Banks
	start := now
	if s.l3FreeAt[bank] > start {
		lat += int(s.l3FreeAt[bank] - start)
		start = s.l3FreeAt[bank]
	}
	service := s.costsL3.ReadCycles
	if write {
		service = s.costsL3.WriteCycles
		s.acct.L3NJ += s.costsL3.WriteNJ
	} else {
		s.acct.L3NJ += s.costsL3.ReadNJ
	}
	if s.rtm != nil {
		// A promotion-buffer hit is served at array speed, with no shift.
		if s.promo == nil || !s.promo.lookup(addr, write) {
			service += s.shiftFor(start, res.Set, res.Way)
			if s.promo != nil {
				if old, dirty := s.promo.insert(addr, write, res.Set, res.Way); dirty {
					// Flush the displaced dirty line back into the array:
					// the controller aligns to the old line, writes, and
					// restores the head — a round-trip off the critical
					// path that pays energy and reliability exposure but
					// leaves head state unchanged.
					s.flushShift(old.set, old.way)
				}
			}
		}
	}
	lat += service
	s.l3FreeAt[bank] = start + uint64(service)
	if res.Hit {
		return lat
	}
	if res.Evicted && s.promo != nil {
		s.promo.invalidate(res.EvictedAddr)
	}
	if res.Writeback {
		s.acct.DRAMNJ += s.costsMem.WriteNJ
	}
	// Fill from DRAM: latency plus channel bandwidth occupancy.
	s.acct.DRAMNJ += s.costsMem.ReadNJ
	memStart := start + uint64(service)
	if s.memFreeAt > memStart {
		lat += int(s.memFreeAt - memStart)
		memStart = s.memFreeAt
	}
	s.memFreeAt = memStart + dramOccupancy
	lat += s.costsMem.ReadCycles
	return lat
}

// shiftFor plans and accounts the shift needed to align the accessed line;
// start is the access's position on the LLC timeline.
func (s *system) shiftFor(start uint64, set, way int) int {
	group, dist, dir := s.rtm.AccessDistance(set, way, s.cfg.L3Ways)
	if dist == 0 {
		s.rtm.MoveHead(group, 0, dir, 0)
		return 0
	}
	var interval uint64
	if start > s.lastShiftCycle {
		interval = start - s.lastShiftCycle
	}
	s.lastShiftCycle = start

	seq := s.plans.Seq(dist, interval)
	cycles := 0
	for _, n := range seq {
		cycles += s.cfg.Scheme.OpCycles(s.timing, n)
		s.pathOps[n]++
	}
	s.trackSeq(seq)
	s.acct.ShiftNJ += s.shiftE.SeqNJ(seq, s.cfg.Scheme.StepLimited())
	s.rtm.MoveHead(group, dist, dir, len(seq))
	s.shiftCycles += uint64(cycles)
	if s.cfg.EagerHead {
		s.returnHead(group)
	}
	if s.cfg.Ideal {
		return 0
	}
	return cycles
}

// trackSeq accounts one planned sequence's reliability exposure: the
// MTTF tracker and the per-operation counts. Every scheme but baseline
// and STS-only runs one p-ECC check per operation; the SECDED family
// also transparently corrects +-1 errors, so expCorr integrates the k=1
// rate over operations (the analytic counterpart of Tape.Corrections).
func (s *system) trackSeq(seq []int) {
	g := float64(s.cfg.Geometry.StripesPerGroup)
	mode := s.cfg.Scheme.CheckMode()
	checked := mode != shiftctrl.CheckNone
	corrects := mode == shiftctrl.CheckCorrect
	for _, n := range seq {
		em := s.em
		if s.faults != nil {
			// One fault-plane step per shift operation: the modulation
			// scales this operation's rates, and a stuck fault lands a
			// concrete position error at probability 1 on one stripe.
			mod := s.faults.Advance()
			if !mod.Identity() {
				em = mod.Apply(em)
				s.faultActive++
			}
			if mod.ForceOffset != 0 {
				s.faultForced++
				switch s.cfg.Scheme.ClassifyOffset(mod.ForceOffset) {
				case shiftctrl.OffsetSDC:
					s.tracker.AddShift(1, 0)
				case shiftctrl.OffsetDUE:
					s.tracker.AddShift(0, 1)
				}
			}
		}
		sdc, due := s.cfg.Scheme.FailureRates(em, n)
		s.tracker.AddShift(sdc*g, due*g)
		s.ops[n]++
		if checked {
			s.checks++
		}
		if corrects {
			s.expCorr += em.K1Rate(n) * g
		}
	}
}

// returnHead eagerly shifts the group's head back to offset 0 after an
// access. The return shift happens off the critical path (no latency
// charged to the access) but pays full energy and reliability exposure.
func (s *system) returnHead(group int) {
	h := s.rtm.Head(group)
	if h == 0 {
		return
	}
	seq := s.plans.Seq(h, 0) // back-to-back: conservative interval
	s.trackSeq(seq)
	s.acct.ShiftNJ += s.shiftE.SeqNJ(seq, s.cfg.Scheme.StepLimited())
	s.rtm.MoveHead(group, h, -1, len(seq))
}

// flushShift accounts the off-path writeback round-trip of a promotion-
// buffer eviction: a shift to the evicted line's offset and back, paying
// energy and reliability exposure without changing the live head state or
// the critical path.
func (s *system) flushShift(set, way int) {
	_, dist, _ := s.rtm.AccessDistance(set, way, s.cfg.L3Ways)
	if dist == 0 {
		return
	}
	for trip := 0; trip < 2; trip++ { // there and back
		seq := s.plans.Seq(dist, 0) // back-to-back: conservative plan
		s.trackSeq(seq)
		s.acct.ShiftNJ += s.shiftE.SeqNJ(seq, s.cfg.Scheme.StepLimited())
	}
	s.promoFlushes++
}

// maxIntensity is the conservative worst-case access intensity: one access
// per bank occupancy across all banks (the single-bank version is the
// paper's §5.2 83M/s figure for the 128MB LLC).
func (s *system) maxIntensity() float64 {
	return l3Banks * s.cfg.ClockHz / float64(s.costsL3.ReadCycles)
}

// result finalizes statistics over the measured window (everything after
// the warmup boundary; the whole run when no warmup was configured).
func (s *system) result() Result {
	maxCycles := s.maxCycles() - s.warmupCycles
	seconds := float64(maxCycles) / s.cfg.ClockHz
	s.tracker.AddTime(seconds)

	// Leakage over the run.
	s.acct.AddLeakage(s.costsL1.LeakageW*float64(s.cfg.Cores), seconds)
	s.acct.AddLeakage(s.costsL2.LeakageW*float64(len(s.l2)), seconds)
	s.acct.AddLeakage(s.costsL3.LeakageW, seconds)

	r := Result{
		Workload: s.w.Name,
		Config:   s.cfg,
		Cycles:   maxCycles,
		Seconds:  seconds,
		L3:       s.l3.Stats,
		Energy:   s.acct,
		Tracker:  s.tracker,
	}
	for _, c := range s.l1 {
		r.L1.Hits += c.Stats.Hits
		r.L1.Misses += c.Stats.Misses
		r.L1.Writebacks += c.Stats.Writebacks
	}
	for _, c := range s.l2 {
		r.L2.Hits += c.Stats.Hits
		r.L2.Misses += c.Stats.Misses
		r.L2.Writebacks += c.Stats.Writebacks
	}
	if s.rtm != nil {
		r.ShiftOps = s.rtm.ShiftOps
		r.ShiftSteps = s.rtm.ShiftSteps
		r.ShiftCycles = s.shiftCycles
		r.AvgShiftDistance = s.rtm.AvgShiftDistance()
	}
	return r
}
