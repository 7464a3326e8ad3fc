package memsim

import (
	"math"
	"strings"
	"testing"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/trace"
)

// smallConfig returns a scaled-down system that runs in milliseconds.
func smallConfig(t energy.Tech, s shiftctrl.Scheme) Config {
	cfg := DefaultConfig(t, s)
	cfg.AccessesPerCore = 5000
	cfg.L1Capacity = 4 << 10
	cfg.L2Capacity = 32 << 10
	cfg.L3Capacity = 256 << 10
	return cfg
}

// smallWorkload shrinks a workload's working set proportionally to the
// scaled-down hierarchy.
func smallWorkload(name string, wsB int64) trace.Workload {
	w, err := trace.ByName(name)
	if err != nil {
		panic(err)
	}
	w.WorkingSetB = wsB
	return w
}

func TestRunBasics(t *testing.T) {
	w := smallWorkload("ferret", 64<<10)
	r, err := Run(w, smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Seconds <= 0 {
		t.Fatal("no time simulated")
	}
	if r.L1.Hits+r.L1.Misses != 4*5000 {
		t.Errorf("L1 accesses = %d, want 20000", r.L1.Hits+r.L1.Misses)
	}
	if r.ShiftOps == 0 {
		t.Error("racetrack LLC performed no shifts")
	}
	if r.Energy.DynamicNJ() <= 0 || r.Energy.LeakageJ <= 0 {
		t.Error("energy not accounted")
	}
	if r.Tracker.ExpectedDUE() <= 0 {
		t.Error("no expected DUEs tracked")
	}
}

func TestRunDeterministic(t *testing.T) {
	w := smallWorkload("vips", 64<<10)
	cfg := smallConfig(energy.Racetrack, shiftctrl.SECDED)
	a, _ := Run(w, cfg)
	b, _ := Run(w, cfg)
	if a.Cycles != b.Cycles || a.ShiftSteps != b.ShiftSteps {
		t.Error("simulation not deterministic")
	}
}

func TestSRAMHasNoShifts(t *testing.T) {
	w := smallWorkload("vips", 64<<10)
	r, err := Run(w, smallConfig(energy.SRAM, shiftctrl.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if r.ShiftOps != 0 || r.Energy.ShiftNJ != 0 {
		t.Error("SRAM config recorded shifts")
	}
	if r.Tracker.ExpectedDUE() != 0 {
		t.Error("SRAM config tracked position errors")
	}
}

func TestIdealRemovesShiftLatency(t *testing.T) {
	w := smallWorkload("ferret", 128<<10)
	cfg := smallConfig(energy.Racetrack, shiftctrl.SECDED)
	real, _ := Run(w, cfg)
	cfg.Ideal = true
	ideal, _ := Run(w, cfg)
	if ideal.Cycles >= real.Cycles {
		t.Errorf("ideal (%d cycles) not faster than real (%d)", ideal.Cycles, real.Cycles)
	}
	// Interleaving on the shared LLC differs slightly when latencies
	// change, so shift counts may drift a little but not systematically.
	ratio := float64(ideal.ShiftOps) / float64(real.ShiftOps)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("ideal shift ops %d vs real %d: drift too large", ideal.ShiftOps, real.ShiftOps)
	}
}

func TestPECCOSplitsShifts(t *testing.T) {
	w := smallWorkload("ferret", 128<<10)
	secded, _ := Run(w, smallConfig(energy.Racetrack, shiftctrl.SECDED))
	pecco, _ := Run(w, smallConfig(energy.Racetrack, shiftctrl.PECCO))
	if pecco.ShiftOps <= secded.ShiftOps {
		t.Errorf("p-ECC-O ops (%d) should exceed SECDED ops (%d)", pecco.ShiftOps, secded.ShiftOps)
	}
	// Total distance is scheme-independent up to interleaving noise on
	// the shared LLC.
	ratio := float64(pecco.ShiftSteps) / float64(secded.ShiftSteps)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("shift steps drifted too much across schemes: %d vs %d", pecco.ShiftSteps, secded.ShiftSteps)
	}
	if pecco.ShiftCycles <= secded.ShiftCycles {
		t.Error("p-ECC-O should pay more shift latency")
	}
	if pecco.Energy.ShiftNJ <= secded.Energy.ShiftNJ {
		t.Error("p-ECC-O should pay more shift energy")
	}
}

func TestSchemeReliabilityOrdering(t *testing.T) {
	// DUE exposure: SED detects but can't correct (high DUE); SECDED
	// corrects +-1 (DUE only on +-2); safe-distance schemes lower it
	// further by limiting distances.
	w := smallWorkload("ferret", 128<<10)
	due := func(s shiftctrl.Scheme) float64 {
		r, _ := Run(w, smallConfig(energy.Racetrack, s))
		return r.Tracker.ExpectedDUE()
	}
	sed := due(shiftctrl.SED)
	secded := due(shiftctrl.SECDED)
	worst := due(shiftctrl.PECCSWorst)
	if !(sed > secded) {
		t.Errorf("SED DUE (%g) should exceed SECDED (%g)", sed, secded)
	}
	if !(secded >= worst) {
		t.Errorf("SECDED DUE (%g) should be >= p-ECC-S worst (%g)", secded, worst)
	}
}

func TestBaselineSDCDominates(t *testing.T) {
	w := smallWorkload("ferret", 128<<10)
	r, _ := Run(w, smallConfig(energy.Racetrack, shiftctrl.Baseline))
	if r.Tracker.ExpectedSDC() <= 0 {
		t.Fatal("baseline tracked no SDC exposure")
	}
	if r.Tracker.ExpectedDUE() != 0 {
		t.Error("baseline detects nothing; DUE must be zero")
	}
	prot, _ := Run(w, smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive))
	if prot.Tracker.ExpectedSDC() >= r.Tracker.ExpectedSDC()/1e6 {
		t.Error("protection should cut SDC exposure by many orders of magnitude")
	}
}

func TestCapacitySensitivity(t *testing.T) {
	// A working set that fits the racetrack LLC but overflows the SRAM
	// LLC must run faster on racetrack (Fig 16's capacity-sensitive
	// case). Scaled: L3 SRAM 64KB vs RM 512KB, working set 256KB.
	w := smallWorkload("canneal", 256<<10)
	w.GapMean = 2
	sramCfg := smallConfig(energy.SRAM, shiftctrl.Baseline)
	sramCfg.L3Capacity = 64 << 10
	sramCfg.AccessesPerCore = 20000
	rmCfg := smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
	rmCfg.L3Capacity = 512 << 10
	rmCfg.AccessesPerCore = 20000
	sram, _ := Run(w, sramCfg)
	rm, _ := Run(w, rmCfg)
	if rm.Cycles >= sram.Cycles {
		t.Errorf("capacity-sensitive workload: RM (%d cycles) should beat small SRAM (%d)",
			rm.Cycles, sram.Cycles)
	}
	if rm.L3.MissRate() >= sram.L3.MissRate() {
		t.Errorf("RM miss rate %.3f should be below SRAM %.3f",
			rm.L3.MissRate(), sram.L3.MissRate())
	}
}

func TestProtectionOverheadSmall(t *testing.T) {
	// Paper: p-ECC-S adaptive costs ~0.2% execution time over
	// unprotected racetrack; allow a loose bound in the scaled system.
	w := smallWorkload("ferret", 128<<10)
	base, _ := Run(w, smallConfig(energy.Racetrack, shiftctrl.Baseline))
	adaptive, _ := Run(w, smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive))
	overhead := float64(adaptive.Cycles)/float64(base.Cycles) - 1
	if overhead < 0 {
		t.Errorf("protection made execution faster? overhead=%v", overhead)
	}
	if overhead > 0.10 {
		t.Errorf("adaptive overhead = %.1f%%, want small (paper: 0.2%%)", overhead*100)
	}
}

func TestMTTFComputable(t *testing.T) {
	w := smallWorkload("ferret", 128<<10)
	r, _ := Run(w, smallConfig(energy.Racetrack, shiftctrl.SECDED))
	due := r.Tracker.DUEMTTF()
	if math.IsNaN(due) || due <= 0 {
		t.Errorf("DUE MTTF = %v", due)
	}
	sdc := r.Tracker.SDCMTTF()
	if sdc <= due {
		t.Errorf("SECDED SDC MTTF (%g) should exceed DUE MTTF (%g)", sdc, due)
	}
}

func TestIPCProxy(t *testing.T) {
	w := smallWorkload("vips", 64<<10)
	r, _ := Run(w, smallConfig(energy.SRAM, shiftctrl.Baseline))
	ipc := r.IPCProxy()
	if ipc <= 0 || ipc > 1 {
		t.Errorf("IPC proxy = %v, want (0,1]", ipc)
	}
}

func TestZeroCoresRejected(t *testing.T) {
	w := smallWorkload("vips", 64<<10)
	cfg := smallConfig(energy.SRAM, shiftctrl.Baseline)
	cfg.Cores = -1
	if _, err := Run(w, cfg); err == nil {
		t.Error("negative cores accepted")
	}
}

// A negative access count is an error, not an empty run with infinite
// MTTFs; 0 still means the default length.
func TestNegativeAccessesRejected(t *testing.T) {
	w := smallWorkload("vips", 64<<10)
	cfg := smallConfig(energy.SRAM, shiftctrl.Baseline)
	cfg.AccessesPerCore = -1
	if _, err := Run(w, cfg); err == nil || !strings.Contains(err.Error(), "must not be negative") {
		t.Errorf("AccessesPerCore -1: err = %v, want a negative-count error", err)
	}
	cfg.AccessesPerCore = 0
	r, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Config.AccessesPerCore; got != 200_000 {
		t.Errorf("AccessesPerCore 0 ran %d accesses a core, want the default 200000", got)
	}
}

// A Sources or Mix list needs one entry per core, and no nil source:
// RunCtx reports any other list instead of indexing past it.
func TestRunCtxRejectsStreamListsNotMatchingCores(t *testing.T) {
	w := smallWorkload("vips", 64<<10)
	src := func() Source { return trace.NewGenerator(w, 0, 1) }
	for _, c := range []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"one source for four cores", func(c *Config) { c.Sources = []Source{src()} }, "1 sources for 4 cores"},
		{"no source for four cores", func(c *Config) { c.Sources = []Source{} }, "0 sources for 4 cores"},
		{"five sources for four cores", func(c *Config) {
			c.Sources = []Source{src(), src(), src(), src(), src()}
		}, "5 sources for 4 cores"},
		{"a nil source", func(c *Config) { c.Sources = []Source{src(), src(), nil, src()} }, "source 2 is nil"},
		{"one program for four cores", func(c *Config) { c.Mix = []trace.Workload{w} }, "1 mix workloads for 4 cores"},
		{"five programs for four cores", func(c *Config) {
			c.Mix = []trace.Workload{w, w, w, w, w}
		}, "5 mix workloads for 4 cores"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallConfig(energy.SRAM, shiftctrl.Baseline)
			c.edit(&cfg)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Run panicked: %v", p)
				}
			}()
			if _, err := Run(w, cfg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run error = %v, want one containing %q", err, c.want)
			}
		})
	}
}

// Validate refuses exactly what RunCtx refuses, with RunCtx's message,
// so a caller can check a configuration before queueing a run of it.
func TestValidateMatchesRunCtx(t *testing.T) {
	w := smallWorkload("vips", 64<<10)
	for _, edit := range []func(*Config){
		func(c *Config) { c.AccessesPerCore = -1 },
		func(c *Config) { c.AccessesPerCore, c.WarmupAccessesPerCore = 100, 500 },
		func(c *Config) { c.WarmupAccessesPerCore = -5 },
		func(c *Config) { c.L3Ways = 32 },
		func(c *Config) { c.Sources = []Source{trace.NewGenerator(w, 0, 1)} },
	} {
		cfg := smallConfig(energy.SRAM, shiftctrl.Baseline)
		edit(&cfg)
		verr := cfg.Validate()
		_, rerr := Run(w, cfg)
		if verr == nil || rerr == nil || verr.Error() != rerr.Error() {
			t.Errorf("Validate = %v, Run = %v; want the same error", verr, rerr)
		}
	}
	cfg := smallConfig(energy.SRAM, shiftctrl.Baseline)
	cfg.AccessesPerCore = 0 // the default
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate(defaults) = %v", err)
	}
}

func TestSTTSlowWrites(t *testing.T) {
	// STT-RAM's 41-cycle writes should make a write-heavy workload
	// slower on STT than the write path alone on racetrack-ideal.
	w := smallWorkload("fluidanimate", 128<<10) // WriteFrac 0.40
	stt, _ := Run(w, smallConfig(energy.STTRAM, shiftctrl.Baseline))
	if stt.Cycles == 0 {
		t.Fatal("no simulation")
	}
	// Sanity only: STT config uses STT costs.
	if stt.Energy.ShiftNJ != 0 {
		t.Error("STT recorded shift energy")
	}
}
