package memsim

import (
	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/timeseries"
)

// The access loop never touches the metrics registry. It counts in plain
// fields, most of which are the Result record anyway: the caches' Stats,
// the RTMArray's shift counts, the adapter's stalls, the promotion
// buffer's hits and misses and the MTTF tracker, plus the system's own
// per-operation tallies. publish adds what those gained since the
// previous publish to Config.Metrics, and ticks Config.Sampler by the
// accesses in between. It runs just before each of the sampler's window
// boundaries (every timeseries.DefaultEvery accesses with no sampler),
// before the warmup/measure reset, and as each phase ends, so every
// window, phase span and final snapshot sees what per-event updates
// would have shown. A detached run never publishes.

// meter ties each series a run feeds to the plain count behind it. The
// zero value, with no links and nil gauges, is a detached run's.
type meter struct {
	counts []countLink
	sums   []sumLink
	hists  []histLink

	accessesDone, accessesTotal, phase *telemetry.Gauge
	warmupDone                         *telemetry.Counter
	published                          uint64 // accesses published so far
}

// countLink publishes the gain of one event count. Several links may
// feed one counter: a level's sibling caches share its series.
type countLink struct {
	c    *telemetry.Counter
	n    *uint64
	last uint64
}

// sumLink publishes the gain of one running float sum.
type sumLink struct {
	c    *telemetry.Counter
	sum  func() float64
	last float64
}

// histLink publishes n[i] samples of value(i) for every index i.
type histLink struct {
	h     *telemetry.Histogram
	n     []uint64
	last  []uint64
	value func(int) float64
}

// newMeter resolves the run's series in reg and links each to its
// count. The shift-array series exist only for a racetrack LLC.
func (s *system) newMeter(reg *telemetry.Registry) meter {
	var m meter
	count := func(name, help string, ns ...*uint64) {
		c := reg.Counter(name, help)
		for _, n := range ns {
			m.counts = append(m.counts, countLink{c: c, n: n})
		}
	}
	sum := func(name, help string, f func() float64) {
		m.sums = append(m.sums, sumLink{c: reg.Counter(name, help), sum: f})
	}
	hist := func(name, help string, bounds []float64, n []uint64, value func(int) float64) {
		m.hists = append(m.hists, histLink{h: reg.Histogram(name, help, bounds),
			n: n, last: make([]uint64, len(n)), value: value})
	}
	steps := func(n int) float64 { return float64(n) }

	level := func(l string, cs ...*cache.Cache) {
		name := func(base string) string { return telemetry.Label(base, "level", l) }
		for _, c := range cs {
			count(name(telemetry.MetricCacheHits), "cache hits by level", &c.Stats.Hits)
			count(name(telemetry.MetricCacheMisses), "cache misses by level", &c.Stats.Misses)
			count(name(telemetry.MetricCacheEvictions), "cache evictions by level", &c.Stats.Evictions)
			count(name(telemetry.MetricCacheWritebacks), "dirty cache evictions by level", &c.Stats.Writebacks)
		}
	}
	level("l1", s.l1...)
	level("l2", s.l2...)
	level("l3", s.l3)
	// Every L3 miss fills from DRAM; every L3 writeback goes to it.
	count(telemetry.MetricDRAMFills, "lines filled from DRAM", &s.l3.Stats.Misses)
	count(telemetry.MetricDRAMWritebacks, "dirty lines written back to DRAM", &s.l3.Stats.Writebacks)

	count(telemetry.MetricShiftCycles, "cycles spent in LLC shift operations", &s.shiftCycles)
	hist(telemetry.MetricShiftOpInterval, "steps per planned shift operation",
		telemetry.ShiftDistanceBuckets(), s.ops, steps)
	hist(telemetry.MetricShiftOpLatency, "latency per shift operation in cycles",
		telemetry.LatencyCycleBuckets(), s.pathOps, func(n int) float64 { return float64(s.cfg.Scheme.OpCycles(s.timing, n)) })
	count(telemetry.MetricPECCChecks, "p-ECC position verifies performed", &s.checks)
	sum(telemetry.MetricExpectedCorrections, "expected p-ECC corrections (analytic)",
		func() float64 { return s.expCorr })
	sum(telemetry.MetricExpectedSDC, "expected silent data corruptions (analytic)", s.tracker.ExpectedSDC)
	sum(telemetry.MetricExpectedDUE, "expected detected-unrecoverable errors (analytic)", s.tracker.ExpectedDUE)

	var promoHits, promoMisses []*uint64
	if s.promo != nil {
		promoHits, promoMisses = []*uint64{&s.promo.Hits}, []*uint64{&s.promo.Misses}
	}
	count(telemetry.MetricPromoHits, "promotion-buffer hits", promoHits...)
	count(telemetry.MetricPromoMisses, "promotion-buffer misses", promoMisses...)
	count(telemetry.MetricPromoFlushes, "promotion-buffer dirty flush round-trips", &s.promoFlushes)

	count(telemetry.MetricFaultsActiveOps, "shift operations run under an active fault modulation", &s.faultActive)
	count(telemetry.MetricFaultsForced, "shift outcomes forced by a stuck-domain fault", &s.faultForced)

	if s.rtm != nil {
		count(telemetry.MetricShiftOps, "shift operations issued", &s.rtm.ShiftOps)
		count(telemetry.MetricShiftSteps, "total shift distance in steps", &s.rtm.ShiftSteps)
		count(telemetry.MetricShiftZero, "accesses needing no head movement", &s.rtm.ZeroShiftAccesses)
		hist(telemetry.MetricShiftDistance, "per-access shift distance in steps",
			telemetry.ShiftDistanceBuckets(), s.rtm.Distances, steps)
		// Only p-ECC-S adaptive has an adapter; every racetrack run
		// still exports the series.
		var stalls []*uint64
		if a := s.plans.Adapter(); a != nil {
			stalls = []*uint64{&a.Stalls}
		}
		count(telemetry.MetricAdapterStalls,
			"adapter lookups where even the all-1-step row needed a longer interval", stalls...)
	}

	m.accessesDone = reg.Gauge(telemetry.MetricSimAccessesDone, "core accesses simulated so far")
	m.accessesTotal = reg.Gauge(telemetry.MetricSimAccessesTotal, "core accesses this run will simulate")
	m.phase = reg.Gauge(telemetry.MetricSimPhase, "0 during cache warmup, 1 while measuring")
	m.warmupDone = reg.Counter(telemetry.MetricSimWarmupAccesses, "core accesses consumed by warmup phases")
	return m
}

// publish adds every count's gain since the previous publish to the
// registry, then ticks the sampler by the accesses in between: on a
// window boundary that tick cuts the window.
func (s *system) publish() {
	if !s.attached {
		return
	}
	m := &s.meter
	for i := range m.counts {
		l := &m.counts[i]
		l.c.Add(float64(*l.n - l.last))
		l.last = *l.n
	}
	for i := range m.sums {
		l := &m.sums[i]
		v := l.sum()
		l.c.Add(v - l.last)
		l.last = v
	}
	for i := range m.hists {
		l := &m.hists[i]
		for v, n := range l.n {
			l.h.ObserveN(l.value(v), n-l.last[v])
			l.last[v] = n
		}
	}
	accesses := s.accesses - m.published
	m.published = s.accesses
	m.accessesDone.Add(float64(accesses))
	s.sampler.Tick(int(accesses))
	s.schedule()
}

// rebase takes every count as it stands as published, after the
// warmup/measure boundary zeroed the Result record behind some of them.
func (s *system) rebase() {
	m := &s.meter
	for i := range m.counts {
		m.counts[i].last = *m.counts[i].n
	}
	for i := range m.sums {
		m.sums[i].last = m.sums[i].sum()
	}
	for i := range m.hists {
		copy(m.hists[i].last, m.hists[i].n)
	}
}

// schedule sets the access count of the next publish: the attached
// sampler's next window boundary, else timeseries.DefaultEvery accesses
// on. A detached run never reaches it.
func (s *system) schedule() {
	if !s.attached {
		s.publishAt = ^uint64(0)
		return
	}
	next := uint64(timeseries.DefaultEvery)
	if every := int64(s.sampler.Every()); every > 0 {
		next = uint64(every - s.sampler.Ticks()%every)
	}
	s.publishAt = s.accesses + next
}
