// Package hifi is a library for building and evaluating reliable racetrack
// (domain-wall) memories with position-error protection, reproducing the
// system described in "Hi-fi Playback: Tolerating Position Errors in Shift
// Operations of Racetrack Memory" (ISCA 2015).
//
// Racetrack memory stores bits in magnetic domains along a nanowire and
// accesses them by shifting the tape past fixed ports. Shifts can fail by
// stopping between notches ("stop-in-middle") or by over/under-shooting
// whole steps ("out-of-step"); both silently misalign every subsequent
// access. This package provides:
//
//   - Memory: a functional racetrack memory with fault injection, the
//     sub-threshold shift (STS) technique, position error correction codes
//     (p-ECC / p-ECC-O), and the position-error-aware shift architecture
//     with safe-distance planning.
//   - Reliability: analytic MTTF computation for a configuration.
//   - The full evaluation suite of the paper under internal/experiments,
//     exposed through the cmd/hifi-experiments tool.
//
// A minimal session:
//
//	mem, _ := hifi.New(1<<20, hifi.Config{Scheme: hifi.SchemePECCSAdaptive})
//	mem.WriteLine(0, line)
//	data, _ := mem.ReadLine(0)
//	fmt.Println(mem.Stats())
package hifi

import (
	"fmt"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/errmodel"
	"racetrack/hifi/internal/mttf"
	"racetrack/hifi/internal/pecc"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/sim"
	"racetrack/hifi/internal/stripe"
)

// Scheme selects the protection configuration. The zero value selects the
// paper's recommended architecture (p-ECC-S adaptive).
type Scheme int

// Protection schemes, from unprotected to the paper's full architecture.
const (
	// SchemeDefault is the recommended configuration: SECDED p-ECC with
	// the adaptive safe-distance shift architecture.
	SchemeDefault Scheme = iota
	SchemeBaseline
	SchemeSTSOnly
	SchemeSED
	SchemeSECDED
	SchemePECCO
	SchemePECCSWorst
	SchemePECCSAdaptive
)

// internal converts to the controller-level scheme.
func (s Scheme) internal() shiftctrl.Scheme {
	switch s {
	case SchemeBaseline:
		return shiftctrl.Baseline
	case SchemeSTSOnly:
		return shiftctrl.STSOnly
	case SchemeSED:
		return shiftctrl.SED
	case SchemeSECDED:
		return shiftctrl.SECDED
	case SchemePECCO:
		return shiftctrl.PECCO
	case SchemePECCSWorst:
		return shiftctrl.PECCSWorst
	default:
		return shiftctrl.PECCSAdaptive
	}
}

// String implements fmt.Stringer.
func (s Scheme) String() string { return s.internal().String() }

// Config parameterizes a Memory.
type Config struct {
	// Scheme is the protection configuration (default SchemePECCSAdaptive).
	Scheme Scheme
	// LineBytes is the access granularity (default 64).
	LineBytes int
	// SegLen is the domains-per-port segment length (default 8).
	SegLen int
	// DomainsPerStripe is the data length of each stripe (default 64).
	DomainsPerStripe int
	// Strength is the p-ECC correction strength m: the code corrects
	// out-of-step errors up to +-m and detects +-(m+1). 0 means the
	// paper's SECDED configuration (m=1). Ignored by the baseline,
	// STS-only, and SED schemes.
	Strength int
	// ErrorScale multiplies the device error rates; 0 means 1. Values
	// around 1e3-1e5 make errors observable in short functional runs.
	ErrorScale float64
	// Seed makes fault injection reproducible (default 1).
	Seed uint64
	// TargetDUE is the safe-distance MTTF goal in seconds (default 10y).
	TargetDUE float64
	// ClockHz is the controller clock (default 2 GHz).
	ClockHz float64
}

func (c *Config) fillDefaults() {
	if c.LineBytes == 0 {
		c.LineBytes = 64
	}
	if c.SegLen == 0 {
		c.SegLen = 8
	}
	if c.DomainsPerStripe == 0 {
		c.DomainsPerStripe = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TargetDUE == 0 {
		c.TargetDUE = 10 * mttf.SecondsPerYear
	}
	if c.ClockHz == 0 {
		c.ClockHz = 2e9
	}
	if c.Scheme == SchemeDefault {
		c.Scheme = SchemePECCSAdaptive
	}
}

// Stats summarizes a Memory's activity.
type Stats struct {
	Reads, Writes    uint64
	ShiftOps         uint64
	ShiftCycles      uint64
	Corrections      uint64
	DUEs             uint64
	SilentErrors     uint64 // oracle count of undetected misalignments
	LinesInvalidated uint64 // lines dropped by DUE recovery
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d shiftOps=%d shiftCycles=%d corrections=%d DUEs=%d silent=%d invalidated=%d",
		s.Reads, s.Writes, s.ShiftOps, s.ShiftCycles, s.Corrections, s.DUEs,
		s.SilentErrors, s.LinesInvalidated)
}

// Memory is a functional racetrack memory protected by the configured
// scheme. Lines are stored in stripe groups that shift together (the
// paper's interleaved data mapping); each group is driven through a
// fault-injected tape controller, so position errors, p-ECC detection,
// correction shifts, and DUE invalidations all actually happen.
//
// Memory is not safe for concurrent use; callers serialize access, as a
// cache controller would.
type Memory struct {
	cfg    Config
	groups []*group
	plans  *shiftctrl.Plans
	timing shiftctrl.Timing
	em     errmodel.Model
	stats  Stats
	// lastShift tracks the global cycle of the previous shift for the
	// adaptive scheme's interval counter.
	lastShift uint64
	now       uint64
}

// group is one stripe group: a representative protected tape (all stripes
// of a group shift together and share position fate) plus the group's line
// data. The tape is the standard p-ECC Tape for most schemes and the
// shift-and-write OTape for SchemePECCO.
type group struct {
	tape  shiftctrl.TapeController
	lines [][]byte
	valid []bool
}

// New builds a Memory of the given capacity in bytes.
func New(capacity int64, cfg Config) (*Memory, error) {
	cfg.fillDefaults()
	if capacity <= 0 {
		return nil, fmt.Errorf("hifi: non-positive capacity")
	}
	if cfg.DomainsPerStripe%cfg.SegLen != 0 {
		return nil, fmt.Errorf("hifi: SegLen %d must divide DomainsPerStripe %d", cfg.SegLen, cfg.DomainsPerStripe)
	}
	groupBytes := int64(cfg.DomainsPerStripe) * int64(cfg.LineBytes)
	if capacity%groupBytes != 0 {
		return nil, fmt.Errorf("hifi: capacity %d not a multiple of group size %d", capacity, groupBytes)
	}
	is := cfg.Scheme.internal()
	checked := is.CheckMode() != shiftctrl.CheckNone
	if cfg.Strength == 0 {
		cfg.Strength = 1 // SECDED, the paper's configuration
	}
	if cfg.Strength < 0 || cfg.Strength >= cfg.SegLen-1 {
		if checked {
			return nil, fmt.Errorf("hifi: strength %d outside [1, %d) for SegLen %d",
				cfg.Strength, cfg.SegLen-1, cfg.SegLen)
		}
		cfg.Strength = 0
	}
	if cfg.SegLen < 3 && checked {
		return nil, fmt.Errorf("hifi: SegLen %d too short for SECDED p-ECC (need >= 3)", cfg.SegLen)
	}

	m := &Memory{cfg: cfg, timing: shiftctrl.DefaultTiming()}
	m.em = errmodel.Model{DisableSTS: !is.UsesSTS(), RateScale: cfg.ErrorScale}
	maxDist := cfg.SegLen - 1
	if maxDist < 1 {
		maxDist = 1
	}
	// p-ECC-S worst plans for back-to-back accesses: one per 24-cycle
	// array access.
	m.plans = shiftctrl.NewPlans(is, m.em, maxDist, cfg.ClockHz, cfg.ClockHz/24, cfg.TargetDUE, 512)

	rng := sim.NewRNG(cfg.Seed)
	n := int(capacity / groupBytes)
	m.groups = make([]*group, n)
	strength := cfg.Strength
	if strength < 1 {
		// Unprotected modes never decode, but the tape still needs a
		// structurally valid code for its layout: use the strongest one
		// the geometry admits (m=0 for SegLen 2).
		strength = 1
		if cfg.SegLen < 3 {
			strength = 0
		}
	}
	code := pecc.MustNew(strength, cfg.SegLen)
	ocode := pecc.MustNewO(strength, cfg.SegLen)
	for i := range m.groups {
		var tape shiftctrl.TapeController
		if is.StepLimited() {
			tape = shiftctrl.NewOTape(ocode, cfg.DomainsPerStripe, m.em, m.timing, rng.Split())
		} else {
			t := shiftctrl.NewTape(code, cfg.DomainsPerStripe, m.em, m.timing, rng.Split())
			t.Mode = is.CheckMode()
			tape = t
		}
		g := &group{
			tape:  tape,
			lines: make([][]byte, cfg.DomainsPerStripe),
			valid: make([]bool, cfg.DomainsPerStripe),
		}
		for j := range g.lines {
			g.lines[j] = make([]byte, cfg.LineBytes)
		}
		m.groups[i] = g
	}
	return m, nil
}

// Capacity returns the memory size in bytes.
func (m *Memory) Capacity() int64 {
	return int64(len(m.groups)) * int64(m.cfg.DomainsPerStripe) * int64(m.cfg.LineBytes)
}

// LineBytes returns the access granularity.
func (m *Memory) LineBytes() int { return m.cfg.LineBytes }

// locate maps a byte address to its group and domain index.
func (m *Memory) locate(addr int64) (*group, int, error) {
	if addr < 0 || addr >= m.Capacity() {
		return nil, 0, fmt.Errorf("hifi: address %#x out of range [0,%#x)", addr, m.Capacity())
	}
	if addr%int64(m.cfg.LineBytes) != 0 {
		return nil, 0, fmt.Errorf("hifi: address %#x not line-aligned", addr)
	}
	lineIdx := addr / int64(m.cfg.LineBytes)
	g := m.groups[lineIdx/int64(m.cfg.DomainsPerStripe)]
	return g, int(lineIdx % int64(m.cfg.DomainsPerStripe)), nil
}

// align shifts the group's tape so the domain is under the ports, using
// the configured scheme's planning.
func (m *Memory) align(g *group, domain int) error {
	target := domain % m.cfg.SegLen
	dist := target - g.tape.BelievedOffset()
	if dist < 0 {
		dist = -dist
	}
	interval := m.now - m.lastShift
	if dist > 0 {
		m.lastShift = m.now
	}
	seqFor := func(d int) []int {
		return m.plans.Seq(d, interval)
	}
	before := g.tape.Counters()
	if err := g.tape.Align(target, seqFor); err != nil {
		return err
	}
	after := g.tape.Counters()
	m.stats.ShiftOps += after.Ops - before.Ops
	m.stats.ShiftCycles += after.Cycles - before.Cycles
	m.stats.Corrections += after.Corrections - before.Corrections
	m.stats.SilentErrors += after.SilentBad - before.SilentBad
	m.now += after.Cycles - before.Cycles
	if dues := after.DUEs - before.DUEs; dues > 0 {
		m.stats.DUEs += dues
		// DUE recovery invalidates the group's lines (data must be
		// refetched by the caller, as a cache would).
		for i := range g.valid {
			if g.valid[i] {
				g.valid[i] = false
				m.stats.LinesInvalidated++
			}
		}
	}
	return nil
}

// WriteLine stores data at the line-aligned address.
func (m *Memory) WriteLine(addr int64, data []byte) error {
	g, domain, err := m.locate(addr)
	if err != nil {
		return err
	}
	if len(data) != m.cfg.LineBytes {
		return fmt.Errorf("hifi: line data %d bytes, want %d", len(data), m.cfg.LineBytes)
	}
	if err := m.align(g, domain); err != nil {
		return err
	}
	m.stats.Writes++
	m.now += 24 // LLC-class array access time
	// Writes land on the domain the tape actually exposes: a silent
	// misalignment corrupts the neighbouring line exactly as on hardware.
	eff := m.effectiveDomain(g, domain)
	if eff < 0 || eff >= len(g.lines) {
		return nil // written into guard domains: lost
	}
	copy(g.lines[eff], data)
	g.valid[eff] = true
	return nil
}

// ReadLine returns the data visible at the line-aligned address. When the
// tape is silently misaligned the returned bytes belong to a neighbouring
// line — exactly the silent data corruption the paper's protection exists
// to prevent. The second return value reports whether the line was valid
// (false after a DUE invalidation).
func (m *Memory) ReadLine(addr int64) ([]byte, bool, error) {
	g, domain, err := m.locate(addr)
	if err != nil {
		return nil, false, err
	}
	if err := m.align(g, domain); err != nil {
		return nil, false, err
	}
	m.stats.Reads++
	m.now += 24
	eff := m.effectiveDomain(g, domain)
	out := make([]byte, m.cfg.LineBytes)
	if eff < 0 || eff >= len(g.lines) {
		return out, false, nil // reading guard domains: junk
	}
	copy(out, g.lines[eff])
	return out, g.valid[eff], nil
}

// effectiveDomain maps the requested domain through any silent tape
// misalignment: with the tape over-shifted by e steps, the port exposes
// the domain e positions earlier in the segment direction.
func (m *Memory) effectiveDomain(g *group, domain int) int {
	e := g.tape.TrueOffset() - g.tape.BelievedOffset()
	return domain - e
}

// Stats returns activity counters.
func (m *Memory) Stats() Stats { return m.stats }

// EnergyEstimate summarizes the dynamic energy the memory's activity has
// consumed, in nanojoules, using the Table 4/5 per-operation constants:
// array reads/writes plus shift and p-ECC detection energy. Leakage is
// excluded (it depends on wall-clock time the caller controls).
type EnergyEstimate struct {
	AccessNJ float64 // array read/write energy
	ShiftNJ  float64 // shift drive energy (stage-1 + stage-2)
	DetectNJ float64 // p-ECC phase checks
	TotalNJ  float64
}

// Energy returns the accumulated dynamic-energy estimate.
func (m *Memory) Energy() EnergyEstimate {
	costs := energy.L3(energy.Racetrack)
	sc := energy.DefaultShift()
	var e EnergyEstimate
	e.AccessNJ = float64(m.stats.Reads)*costs.ReadNJ + float64(m.stats.Writes)*costs.WriteNJ
	// Per-operation average: stage-2 plus average step count per op.
	if m.stats.ShiftOps > 0 {
		// ShiftCycles = sum over ops of ceil(0.8n)+3; recover the total
		// step estimate from cycles: steps ~ (cycles - 3*ops)/0.8.
		steps := (float64(m.stats.ShiftCycles) - 3*float64(m.stats.ShiftOps)) / 0.8
		if steps < float64(m.stats.ShiftOps) {
			steps = float64(m.stats.ShiftOps)
		}
		e.ShiftNJ = sc.PerOpNJ*float64(m.stats.ShiftOps) + sc.PerStepNJ*steps
		e.DetectNJ = sc.DetectNJ * float64(m.stats.ShiftOps)
	}
	e.TotalNJ = e.AccessNJ + e.ShiftNJ + e.DetectNJ
	return e
}

// Aligned reports whether every group's tape position matches the
// controller's belief (oracle; for tests and demonstrations).
func (m *Memory) Aligned() bool {
	for _, g := range m.groups {
		if !g.tape.Aligned() {
			return false
		}
	}
	return true
}

// Reliability returns the analytic MTTF estimates for a configuration at a
// given shift intensity (operations per second), using the paper's
// 512-stripe groups and a uniform distribution of access offsets. For the
// safe-distance schemes the per-access shift is split exactly as the
// architecture would split it at that intensity.
func Reliability(s Scheme, segLen int, opsPerSec float64) (sdcMTTF, dueMTTF float64) {
	var sdc, due float64
	if segLen > 1 {
		em := errmodel.Model{}
		is := s.internal()
		// Only the fixed-intensity plans are consulted, so the adapter's
		// clock is moot.
		plans := shiftctrl.NewPlans(is, em, segLen-1, 2e9, opsPerSec, 10*mttf.SecondsPerYear, 512)
		dist := shiftctrl.UniformDistances(segLen)
		for d := 1; d < segLen; d++ {
			for _, step := range plans.Plan(d) {
				sd, du := is.FailureRates(em, step)
				sdc += dist[d] * sd * 512
				due += dist[d] * du * 512
			}
		}
	}
	return mttf.FromRate(sdc, opsPerSec), mttf.FromRate(due, opsPerSec)
}

// YearsMTTF converts seconds to years (re-exported convenience).
func YearsMTTF(seconds float64) float64 { return mttf.Years(seconds) }

// Bit re-exports the tri-state domain value for advanced users working
// with internal tape state via examples.
type Bit = stripe.Bit

// Tri-state bit values.
const (
	Bit0        = stripe.Zero
	Bit1        = stripe.One
	BitUnknown  = stripe.Unknown
	DefaultLine = 64
)
