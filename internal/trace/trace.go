// Package trace generates deterministic synthetic memory-access traces that
// stand in for the PARSEC benchmark suite used by the paper's gem5
// evaluation. Each named workload is parameterized by working-set size,
// access locality, write fraction, and compute gap so that the two classes
// the paper's Fig. 16 separates — capacity-sensitive (working sets larger
// than the 4MB SRAM LLC but within the 128MB racetrack LLC) and
// capacity-insensitive — are exercised by construction.
package trace

import (
	"fmt"

	"racetrack/hifi/internal/sim"
)

// LineBytes is the cache-line granularity of generated addresses.
const LineBytes = 64

// Access is one memory reference.
type Access struct {
	// Addr is a byte address, line-aligned.
	Addr uint64
	// Write marks stores.
	Write bool
	// Gap is the number of compute cycles since the previous access of
	// the same core.
	Gap int
}

// Workload describes one synthetic benchmark.
type Workload struct {
	Name string
	// CapacitySensitive classifies the workload for Fig. 16/17/18
	// grouping.
	CapacitySensitive bool
	// WorkingSetB is the hot working-set size in bytes.
	WorkingSetB int64
	// ZipfS is the skew of hot-region reuse (higher = tighter locality).
	ZipfS float64
	// StreamFrac is the fraction of accesses that continue a sequential
	// stream (spatial locality).
	StreamFrac float64
	// WriteFrac is the fraction of stores.
	WriteFrac float64
	// GapMean is the mean compute cycles between accesses.
	GapMean float64
	// LatencySensitive marks workloads whose progress is dominated by
	// memory latency (the paper singles out streamcluster).
	LatencySensitive bool
	// PhasePeriod inserts a long compute burst every that-many accesses
	// (0 disables). Real programs have barrier-separated phases; the
	// bursts give the adaptive shift architecture idle intervals to
	// exploit. All cores of a workload share the period, so their bursts
	// roughly overlap.
	PhasePeriod int
	// PhaseGapMean is the mean burst length in cycles.
	PhaseGapMean float64
}

// PARSEC returns the twelve synthetic workloads modeled after the PARSEC
// suite. Working-set sizes follow the suite's published characterization
// qualitatively: canneal/freqmine/ferret/facesim/fluidanimate/dedup stress
// capacity; blackscholes/swaptions/bodytrack/vips/x264/streamcluster do
// not (streamcluster streams, stressing latency instead).
func PARSEC() []Workload {
	return []Workload{
		// Capacity-sensitive: low-skew reuse over working sets that
		// overflow a 4MB SRAM LLC but fit the 128MB racetrack LLC.
		{Name: "canneal", CapacitySensitive: true, WorkingSetB: 24 << 20, ZipfS: 0.30, StreamFrac: 0.05, WriteFrac: 0.25, GapMean: 2, PhasePeriod: 20000, PhaseGapMean: 100e3},
		{Name: "dedup", CapacitySensitive: true, WorkingSetB: 16 << 20, ZipfS: 0.40, StreamFrac: 0.25, WriteFrac: 0.30, GapMean: 3},
		{Name: "facesim", CapacitySensitive: true, WorkingSetB: 20 << 20, ZipfS: 0.45, StreamFrac: 0.35, WriteFrac: 0.35, GapMean: 4},
		{Name: "ferret", CapacitySensitive: true, WorkingSetB: 16 << 20, ZipfS: 0.40, StreamFrac: 0.20, WriteFrac: 0.20, GapMean: 3},
		{Name: "fluidanimate", CapacitySensitive: true, WorkingSetB: 12 << 20, ZipfS: 0.50, StreamFrac: 0.30, WriteFrac: 0.40, GapMean: 3},
		{Name: "freqmine", CapacitySensitive: true, WorkingSetB: 28 << 20, ZipfS: 0.35, StreamFrac: 0.15, WriteFrac: 0.25, GapMean: 2},
		// Capacity-insensitive: working sets within every LLC option, or
		// pure streaming with no temporal reuse.
		{Name: "blackscholes", WorkingSetB: 2 << 20, ZipfS: 1.0, StreamFrac: 0.50, WriteFrac: 0.15, GapMean: 20, PhasePeriod: 10000, PhaseGapMean: 300e3},
		{Name: "bodytrack", WorkingSetB: 3 << 20, ZipfS: 0.9, StreamFrac: 0.40, WriteFrac: 0.20, GapMean: 14},
		{Name: "streamcluster", WorkingSetB: 16 << 20, ZipfS: 0.3, StreamFrac: 0.85, WriteFrac: 0.10, GapMean: 4, LatencySensitive: true},
		{Name: "swaptions", WorkingSetB: 1 << 20, ZipfS: 1.1, StreamFrac: 0.30, WriteFrac: 0.15, GapMean: 18, PhasePeriod: 8000, PhaseGapMean: 250e3},
		{Name: "vips", WorkingSetB: 3 << 20, ZipfS: 0.8, StreamFrac: 0.60, WriteFrac: 0.30, GapMean: 12},
		{Name: "x264", WorkingSetB: 2 << 20, ZipfS: 0.9, StreamFrac: 0.65, WriteFrac: 0.25, GapMean: 10, PhasePeriod: 15000, PhaseGapMean: 150e3},
	}
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range PARSEC() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("trace: unknown workload %q", name)
}

// Generator produces one core's access stream for a workload. Streams are
// deterministic: the same (workload, core, seed) always yields the same
// trace.
type Generator struct {
	w      Workload
	rng    *sim.RNG
	lines  int64 // working-set size in lines
	cursor int64 // sequential stream position (line index)
	dwell  int   // remaining touches on the current stream line
	count  int   // accesses generated (for phase boundaries)

	// The workload's distributions, with their constants computed once.
	hot     sim.ZipfSampler      // hot-region line rank
	gapDist sim.GeometricSampler // compute gap; unused when GapMean <= 0
}

// streamDwell is the mean number of touches a streaming access pattern
// makes within one cache line before advancing (sub-line spatial locality:
// ~8-byte elements in a 64-byte line).
const streamDwell = 6

// dwellDist draws the touches a stream makes on its next line.
var dwellDist = sim.NewGeometricSampler(1.0 / streamDwell)

// NewGenerator builds a generator for the given core.
func NewGenerator(w Workload, core int, seed uint64) *Generator {
	if w.WorkingSetB < LineBytes {
		panic("trace: working set smaller than one line")
	}
	g := &Generator{
		w:     w,
		rng:   sim.NewRNG(seed ^ uint64(core)*0x9e3779b97f4a7c15 ^ hashName(w.Name)),
		lines: w.WorkingSetB / LineBytes,
	}
	g.hot = sim.NewZipfSampler(int(g.lines), w.ZipfS)
	if w.GapMean > 0 {
		g.gapDist = sim.NewGeometricSampler(1 / (1 + w.GapMean))
	}
	// Cores share the working set (threads of one program) but start
	// their streams at different phases.
	g.cursor = int64(core) * g.lines / 8 % g.lines
	return g
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Next returns the next access.
func (g *Generator) Next() Access {
	var line int64
	if g.rng.Bool(g.w.StreamFrac) {
		// Streaming dwells on a line for several touches before moving
		// to the next one (sub-line spatial locality).
		if g.dwell > 0 {
			g.dwell--
		} else {
			g.cursor = (g.cursor + 1) % g.lines
			g.dwell = dwellDist.Draw(g.rng)
		}
		line = g.cursor
	} else {
		line = int64(g.hot.Draw(g.rng))
		// Scatter hot lines across the set-index space so zipf rank 0..k
		// doesn't collapse into a few cache sets.
		line = scatter(line, g.lines)
	}
	gap := 0
	if g.w.GapMean > 0 {
		gap = g.gapDist.Draw(g.rng)
	}
	g.count++
	if g.w.PhasePeriod > 0 && g.count%g.w.PhasePeriod == 0 {
		// Phase boundary: a long compute burst (e.g. a barrier plus the
		// next phase's setup) with no memory traffic.
		gap += int(g.rng.Exponential(1 / g.w.PhaseGapMean))
	}
	return Access{
		Addr:  uint64(line) * LineBytes,
		Write: g.rng.Bool(g.w.WriteFrac),
		Gap:   gap,
	}
}

// scatter permutes line indices within the working set with a cheap
// bijective mix so that frequently used (low zipf rank) lines spread over
// the address space.
func scatter(line, n int64) int64 {
	x := uint64(line)
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int64(x % uint64(n))
}

// Take returns the next n accesses as a slice (testing convenience).
func (g *Generator) Take(n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}
