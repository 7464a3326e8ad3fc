// Package telemetry is the observability substrate of the simulation
// stack: a dependency-free, concurrency-safe metrics registry (counters,
// gauges, histograms with fixed bucket layouts) and snapshot exporters
// in Prometheus text format and JSON.
//
// The design goal is that instrumentation costs (almost) nothing when it
// is switched off: every metric handle is nil-safe, so a package holds
// plain *Counter / *Histogram fields and increments them unconditionally;
// with no registry attached the fields are nil and each call is a single
// predictable branch with zero allocations. When a registry is attached,
// updates are lock-free atomics safe for concurrent use.
package telemetry

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing series. Values are float64 so
// that expected-value accounting (fractional error counts from the
// analytic model) shares the same type as event counts. A nil *Counter
// is a valid no-op handle.
type Counter struct {
	name string
	help string
	bits atomic.Uint64 // float64 bits
}

// Name returns the full series name, including any label suffix.
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v. Negative deltas are ignored to keep
// the series monotone.
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current total (0 for a nil handle).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a series that can move both ways (queue depths, progress,
// head positions). A nil *Gauge is a valid no-op handle.
type Gauge struct {
	name string
	help string
	bits atomic.Uint64
}

// Name returns the full series name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by v (either sign).
func (g *Gauge) Add(v float64) {
	if g == nil || v == 0 {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value (0 for a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Bucket bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// A nil *Histogram is a valid no-op handle.
type Histogram struct {
	name   string
	help   string
	bounds []float64       // len B, ascending upper bounds
	counts []atomic.Uint64 // len B+1, last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// Name returns the full series name.
func (h *Histogram) Name() string { return h.name }

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of value v in one update. For whole-number
// samples it leaves the histogram exactly as n calls of Observe would.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if h == nil || n == 0 {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	addFloat(&h.sum, v*float64(n))
	h.count.Add(n)
}

// Count returns the number of observations (0 for a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for a nil handle).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ShiftDistanceBuckets is the fixed layout for shift-distance histograms:
// one bucket per distance the paper tabulates (1..7, Table 2) plus the
// segment-length tail. Distances are small integers, so exact buckets
// make the Table 2 per-distance decomposition recoverable from the
// histogram alone.
func ShiftDistanceBuckets() []float64 {
	return []float64{1, 2, 3, 4, 5, 6, 7, 8, 16, 32}
}

// LatencyCycleBuckets is the fixed layout for latency histograms in
// controller cycles: powers of two from a single cycle to DRAM-scale
// stalls.
func LatencyCycleBuckets() []float64 {
	return []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
}
