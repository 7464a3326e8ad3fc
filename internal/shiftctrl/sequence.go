package shiftctrl

import (
	"fmt"
	"math"

	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/sts"
)

// Timing bundles the latency model for planned shift operations.
type Timing struct {
	STS sts.Config
	// CheckCycles is the extra latency of the p-ECC phase comparison per
	// shift operation (1 cycle in the paper's Table 3 latencies).
	CheckCycles int
}

// DefaultTiming matches the paper's 2 GHz operating point: every shift of n
// steps costs ceil(0.8n)+2 STS cycles plus 1 detection cycle.
func DefaultTiming() Timing {
	return Timing{STS: sts.DefaultConfig(), CheckCycles: 1}
}

// OpCycles returns the cycles of one n-step shift operation including the
// p-ECC check.
func (t Timing) OpCycles(n int) int {
	if n <= 0 {
		return 0
	}
	return t.STS.Cycles(n) + t.CheckCycles
}

// SeqCycles returns the total latency of a shift sequence.
func (t Timing) SeqCycles(seq []int) int {
	total := 0
	for _, n := range seq {
		total += t.OpCycles(n)
	}
	return total
}

// SeqUncorrectableRate returns the overall uncorrectable (k=2) error rate of
// a sequence: the sum of per-operation rates (union bound; rates are tiny).
func SeqUncorrectableRate(em errmodel.Model, seq []int) float64 {
	total := 0.0
	for _, n := range seq {
		total += em.K2Rate(n)
	}
	return total
}

// SafeDistance returns the largest single-shift distance whose
// uncorrectable rate stays within maxRate, bounded by maxDist (usually
// Lseg-1). It returns 1 even if the 1-step rate exceeds maxRate: a 1-step
// shift is the finest operation available.
func SafeDistance(em errmodel.Model, maxRate float64, maxDist int) int {
	d := 1
	for n := 2; n <= maxDist; n++ {
		if em.K2Rate(n) > maxRate {
			break
		}
		d = n
	}
	return d
}

// SafeIntensity returns the highest average shift intensity (operations per
// second) at which single shifts of distance n still meet the MTTF target,
// with stripes shifting together per operation (Table 3a: the paper's
// 512-stripe groups and 10-year DUE target).
func SafeIntensity(em errmodel.Model, n int, target float64, stripes int) float64 {
	rate := em.K2Rate(n) * float64(stripes)
	if rate <= 0 {
		return math.Inf(1)
	}
	return 1 / (rate * target)
}

// Planner selects safe shift sequences (Algorithm 1). It memoizes a
// latency/error Pareto table per distance so that per-access planning is a
// table lookup.
type Planner struct {
	em     errmodel.Model
	timing Timing
	// maxStep is the longest step any plan may use (Lseg-1).
	maxStep int
	// pareto[d] lists the Pareto-optimal (cycles, rate, firstStep) choices
	// for distance d, sorted by cycles ascending / rate descending.
	pareto [][]paretoEntry
}

type paretoEntry struct {
	cycles int
	rate   float64
	first  int // first step of an optimal sequence achieving this point
}

// NewPlanner builds a planner for distances up to maxDist with steps up to
// maxStep.
func NewPlanner(em errmodel.Model, timing Timing, maxDist, maxStep int) *Planner {
	if maxDist < 1 || maxStep < 1 {
		panic("shiftctrl: planner needs positive distances")
	}
	p := &Planner{em: em, timing: timing, maxStep: maxStep}
	p.pareto = make([][]paretoEntry, maxDist+1)
	p.pareto[0] = []paretoEntry{{0, 0, 0}}
	for d := 1; d <= maxDist; d++ {
		// Collect candidate (cycles, rate) for each first step, then
		// reduce to the Pareto frontier.
		var cands []paretoEntry
		for s := 1; s <= maxStep && s <= d; s++ {
			opC := timing.OpCycles(s)
			opR := em.K2Rate(s)
			for _, rest := range p.pareto[d-s] {
				cands = append(cands, paretoEntry{
					cycles: opC + rest.cycles,
					rate:   opR + rest.rate,
					first:  s,
				})
			}
		}
		p.pareto[d] = paretoReduce(cands)
	}
	return p
}

// paretoReduce keeps only non-dominated entries, sorted by cycles
// ascending; among equal cycles the lowest rate survives.
func paretoReduce(cands []paretoEntry) []paretoEntry {
	if len(cands) == 0 {
		return nil
	}
	// Insertion sort by (cycles, rate); candidate lists are small.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if b.cycles < a.cycles || (b.cycles == a.cycles && b.rate < a.rate) {
				cands[j-1], cands[j] = b, a
			} else {
				break
			}
		}
	}
	out := cands[:0]
	bestRate := math.Inf(1)
	lastCycles := -1
	for _, c := range cands {
		if c.cycles == lastCycles {
			continue // higher or equal rate at same cycles
		}
		if c.rate < bestRate {
			out = append(out, c)
			bestRate = c.rate
			lastCycles = c.cycles
		}
	}
	return out
}

// MaxDist returns the largest plannable distance.
func (p *Planner) MaxDist() int { return len(p.pareto) - 1 }

// Plan returns the minimum-latency shift sequence for distance d whose
// total uncorrectable rate does not exceed maxRate (Algorithm 1). Among
// minimum-latency candidates the lowest-rate sequence is chosen. If even
// the all-1-step sequence exceeds maxRate it is returned anyway with an
// error: the architecture cannot do better than single steps.
func (p *Planner) Plan(d int, maxRate float64) ([]int, error) {
	if d < 0 || d > p.MaxDist() {
		return nil, fmt.Errorf("shiftctrl: distance %d outside planner range [0,%d]", d, p.MaxDist())
	}
	if d == 0 {
		return nil, nil
	}
	seq := p.reconstruct(d, maxRate)
	if seq == nil {
		// No frontier point satisfies the bound; fall back to all-1s.
		seq = make([]int, d)
		for i := range seq {
			seq[i] = 1
		}
		return seq, fmt.Errorf("shiftctrl: no sequence for distance %d meets rate %g; using 1-step ops", d, maxRate)
	}
	return seq, nil
}

// reconstruct walks the Pareto tables to emit the chosen sequence, or nil
// when no entry meets the bound.
func (p *Planner) reconstruct(d int, maxRate float64) []int {
	var seq []int
	remaining := maxRate
	for d > 0 {
		entry, ok := pickEntry(p.pareto[d], remaining)
		if !ok {
			return nil
		}
		seq = append(seq, entry.first)
		remaining -= p.em.K2Rate(entry.first)
		d -= entry.first
	}
	return seq
}

// pickEntry returns the first (fastest) frontier entry with rate <= budget.
func pickEntry(frontier []paretoEntry, budget float64) (paretoEntry, bool) {
	for _, e := range frontier {
		if e.rate <= budget {
			return e, true
		}
	}
	return paretoEntry{}, false
}

// Frontier exposes the (cycles, rate) Pareto points for distance d, used by
// the adapter to build interval threshold tables and by tests.
func (p *Planner) Frontier(d int) (cycles []int, rates []float64) {
	for _, e := range p.pareto[d] {
		cycles = append(cycles, e.cycles)
		rates = append(rates, e.rate)
	}
	return cycles, rates
}

// Sequence reconstructs the full sequence for the frontier entry of
// distance d with the given index.
func (p *Planner) Sequence(d, idx int) []int {
	if d == 0 {
		return nil
	}
	e := p.pareto[d][idx]
	seq := []int{e.first}
	// The remainder follows the frontier entry whose totals match.
	restCycles := e.cycles - p.timing.OpCycles(e.first)
	restRate := e.rate - p.em.K2Rate(e.first)
	rest := p.pareto[d-e.first]
	for i, re := range rest {
		if re.cycles == restCycles && math.Abs(re.rate-restRate) <= 1e-30+1e-9*restRate {
			return append(seq, p.Sequence(d-e.first, i)...)
		}
	}
	// Fall back: greedy reconstruct under the entry's rate budget.
	tail := p.reconstruct(d-e.first, e.rate-p.em.K2Rate(e.first)+1e-30)
	return append(seq, tail...)
}

// Adapter implements the run-time adaptive safe distance (§5.3): it maps
// the interval since the previous shift (in cycles) to the safe sequence
// for each requested distance, using one global table and an interval
// counter — the paper's "Adapter" block.
type Adapter struct {
	planner *Planner
	clockHz float64
	target  float64 // DUE MTTF target in seconds
	stripes int     // stripes shifting together per operation
	// table[d] is sorted by MinInterval descending: the first entry whose
	// MinInterval <= interval is the fastest safe sequence.
	table [][]AdaptEntry
	// Stalls counts lookups where even the slowest row's MinInterval
	// exceeded the observed interval (the architecture would stall).
	Stalls uint64
}

// AdaptEntry is one row of the adapter table (paper Table 3b).
type AdaptEntry struct {
	MinInterval uint64 // minimum inter-shift interval in cycles
	Seq         []int
	Cycles      int
	Rate        float64
}

// NewAdapter builds the adapter table for all distances the planner covers.
func NewAdapter(p *Planner, clockHz, targetSeconds float64, stripes int) *Adapter {
	a := &Adapter{planner: p, clockHz: clockHz, target: targetSeconds, stripes: stripes}
	a.table = make([][]AdaptEntry, p.MaxDist()+1)
	for d := 1; d <= p.MaxDist(); d++ {
		cycles, rates := p.Frontier(d)
		entries := make([]AdaptEntry, 0, len(cycles))
		for i := range cycles {
			// Safe when rate <= 1/(T * I * stripes) with I = clock/interval:
			// interval >= clock * rate * T * stripes.
			min := uint64(math.Ceil(clockHz * rates[i] * targetSeconds * float64(stripes)))
			entries = append(entries, AdaptEntry{
				MinInterval: min,
				Seq:         p.Sequence(d, i),
				Cycles:      cycles[i],
				Rate:        rates[i],
			})
		}
		a.table[d] = entries
	}
	return a
}

// Table returns the rows for distance d (fastest first), for reporting.
func (a *Adapter) Table(d int) []AdaptEntry { return a.table[d] }

// SequenceFor returns the fastest safe sequence for a shift of distance d
// issued intervalCycles after the previous shift. If even the slowest
// (all-1-step) row requires a longer interval, that row is returned — the
// architecture stalls rather than exceeding it, so callers should treat
// its MinInterval as a lower bound on issue time.
func (a *Adapter) SequenceFor(d int, intervalCycles uint64) []int {
	if d <= 0 {
		return nil
	}
	if d > a.planner.MaxDist() {
		panic(fmt.Sprintf("shiftctrl: distance %d outside adapter range", d))
	}
	rows := a.table[d]
	for _, e := range rows {
		if intervalCycles >= e.MinInterval {
			return e.Seq
		}
	}
	a.Stalls++
	return rows[len(rows)-1].Seq
}

// WorstCaseSequence returns the safe sequence assuming the highest access
// intensity the memory supports (the p-ECC-S "worst" configuration, §5.2).
func WorstCaseSequence(p *Planner, d int, maxIntensity float64, targetSeconds float64, stripes int) []int {
	maxRate := mttf.MaxRateFor(targetSeconds, maxIntensity*float64(stripes))
	seq, _ := p.Plan(d, maxRate)
	return seq
}

// Plans is one scheme's shift plans for one segment length: how a shift
// of each distance splits into operations. p-ECC-O moves one step per
// operation, both p-ECC-S schemes plan for a fixed access intensity, and
// the other schemes shift the whole distance at once. p-ECC-S adaptive
// also holds the run-time adapter, which replans by the interval since
// the previous shift.
type Plans struct {
	fixed   [][]int
	adapter *Adapter
}

// NewPlans plans every distance up to maxDist for scheme s under the
// default timing. intensity is the access intensity (operations per
// second) the p-ECC-S plans must tolerate at the targetSeconds DUE MTTF
// with stripes shifting together; clockHz times the adapter's intervals.
func NewPlans(s Scheme, em errmodel.Model, maxDist int, clockHz, intensity, targetSeconds float64, stripes int) *Plans {
	p := &Plans{fixed: make([][]int, maxDist+1)}
	var planner *Planner
	if s.UsesSafeDistance() {
		planner = NewPlanner(em, DefaultTiming(), maxDist, maxDist)
	}
	ones := make([]int, maxDist)
	for i := range ones {
		ones[i] = 1
	}
	for d := 1; d <= maxDist; d++ {
		switch {
		case s.StepLimited():
			p.fixed[d] = ones[:d]
		case planner != nil:
			p.fixed[d] = WorstCaseSequence(planner, d, intensity, targetSeconds, stripes)
		default:
			p.fixed[d] = []int{d}
		}
	}
	if s == PECCSAdaptive {
		p.adapter = NewAdapter(planner, clockHz, targetSeconds, stripes)
	}
	return p
}

// Plan returns the fixed-intensity plan for a shift of distance d. The
// slice is shared by every caller: it must not be modified.
func (p *Plans) Plan(d int) []int { return p.fixed[d] }

// Seq returns the plan for a shift of distance d issued intervalCycles
// after the previous shift: the adapter's choice under p-ECC-S adaptive,
// the fixed plan otherwise. The slice must not be modified.
func (p *Plans) Seq(d int, intervalCycles uint64) []int {
	if p.adapter != nil {
		return p.adapter.SequenceFor(d, intervalCycles)
	}
	return p.fixed[d]
}

// Adapter returns the run-time adapter, or nil for every scheme but
// p-ECC-S adaptive.
func (p *Plans) Adapter() *Adapter { return p.adapter }

// UniformDistances returns the probability of each shift distance
// 0..segLen-1 between uniformly random successive target offsets in
// [0, segLen): 1/n for distance 0 and 2(n-d)/n^2 otherwise. It is the
// analytic access model of the sensitivity studies and the design search.
func UniformDistances(segLen int) []float64 {
	if segLen < 1 {
		return nil
	}
	n := float64(segLen)
	dist := make([]float64, segLen)
	dist[0] = 1 / n
	for d := 1; d < segLen; d++ {
		dist[d] = 2 * (n - float64(d)) / (n * n)
	}
	return dist
}
