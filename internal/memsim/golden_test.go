package memsim

// Golden test for the simulated statistics: every numeric Result field of
// a fixed set of scaled runs is pinned in testdata, so a change to the
// simulator's hot path that drifts a single bit of any counter, energy
// term or reliability integral fails here rather than only in the
// fidelity tolerances. Regenerate with
// HIFI_UPDATE_GOLDEN=1 go test ./internal/memsim -run TestResultsGolden.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/faults"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/trace"
)

const resultsGolden = "testdata/results_golden.txt"

// scaledConfig is the experiments package's scaled hierarchy (2 KB L1s,
// 8 KB L2s, a 32 KB / 256 KB / 1 MB L3 by technology) at a short trace.
func scaledConfig(t energy.Tech, s shiftctrl.Scheme) Config {
	cfg := DefaultConfig(t, s)
	cfg.AccessesPerCore = 2000
	cfg.L1Capacity = 2 << 10
	cfg.L2Capacity = 8 << 10
	cfg.L3Capacity = map[energy.Tech]int64{
		energy.SRAM: 32 << 10, energy.STTRAM: 256 << 10, energy.Racetrack: 1 << 20,
	}[t]
	return cfg
}

// scaledWorkload shrinks a PARSEC workload's working set the way the
// scaled experiments do: by 2^7, but to no less than 12 KB.
func scaledWorkload(name string) trace.Workload {
	w, err := trace.ByName(name)
	if err != nil {
		panic(err)
	}
	w.WorkingSetB = max(w.WorkingSetB>>7, 12<<10)
	return w
}

type goldenCase struct {
	name string
	w    trace.Workload
	cfg  Config
}

func goldenCases(t *testing.T) []goldenCase {
	rtm := func(s shiftctrl.Scheme) Config { return scaledConfig(energy.Racetrack, s) }
	var cases []goldenCase
	add := func(name, workload string, cfg Config) {
		cases = append(cases, goldenCase{name, scaledWorkload(workload), cfg})
	}

	for _, s := range []shiftctrl.Scheme{shiftctrl.Baseline, shiftctrl.STSOnly, shiftctrl.SED,
		shiftctrl.SECDED, shiftctrl.PECCO, shiftctrl.PECCSWorst, shiftctrl.PECCSAdaptive} {
		add("racetrack/"+s.String(), "canneal", rtm(s))
	}
	add("sram/baseline", "ferret", scaledConfig(energy.SRAM, shiftctrl.Baseline))
	add("sttram/baseline", "ferret", scaledConfig(energy.STTRAM, shiftctrl.Baseline))

	ideal := rtm(shiftctrl.SECDED)
	ideal.Ideal = true
	add("racetrack/secded-pecc/ideal", "vips", ideal)

	for _, s := range []shiftctrl.Scheme{shiftctrl.Baseline, shiftctrl.PECCO,
		shiftctrl.PECCSWorst, shiftctrl.PECCSAdaptive} {
		eager := rtm(s)
		eager.EagerHead = true
		add("racetrack/"+s.String()+"/eager", "freqmine", eager)
		promo := rtm(s)
		promo.PromoEntries = 16
		add("racetrack/"+s.String()+"/promo", "dedup", promo)
	}
	both := rtm(shiftctrl.PECCSAdaptive)
	both.EagerHead = true
	both.PromoEntries = 16
	add("racetrack/secded-pecc-s-adaptive/eager+promo", "facesim", both)

	warm := rtm(shiftctrl.PECCSAdaptive)
	warm.WarmupAccessesPerCore = 500
	add("racetrack/secded-pecc-s-adaptive/warmup", "x264", warm)
	warmSRAM := scaledConfig(energy.SRAM, shiftctrl.Baseline)
	warmSRAM.WarmupAccessesPerCore = 500
	add("sram/baseline/warmup", "x264", warmSRAM)

	mix := rtm(shiftctrl.PECCSWorst)
	mix.Mix = []trace.Workload{scaledWorkload("canneal"), scaledWorkload("vips"),
		scaledWorkload("swaptions"), scaledWorkload("streamcluster")}
	add("racetrack/secded-pecc-s-worst/mix", "canneal", mix)

	for _, preset := range []string{"mixed", "stuck"} {
		plan, err := faults.Preset(preset)
		if err != nil {
			t.Fatal(err)
		}
		f := rtm(shiftctrl.SECDED)
		f.FaultPlan = plan
		add("racetrack/secded-pecc/faults-"+preset, "fluidanimate", f)
	}

	replay := rtm(shiftctrl.PECCO)
	w := scaledWorkload("bodytrack")
	for core := 0; core < replay.Cores; core++ {
		replay.Sources = append(replay.Sources, recorded(t, w, core, replay.Seed, replay.AccessesPerCore))
	}
	add("racetrack/secded-pecc-o/replay", "bodytrack", replay)
	return cases
}

// goldenLine prints every numeric Result field; floats round-trip exactly.
func goldenLine(name string, r Result) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	st := func(s cache.Stats) string {
		return fmt.Sprintf("%d/%d/%d/%d/%d/%d",
			s.Hits, s.Misses, s.Evictions, s.Writebacks, s.ReadAccesses, s.WriteAccesses)
	}
	e := r.Energy
	return fmt.Sprintf("%s cycles=%d seconds=%s l1=%s l2=%s l3=%s shift=%d/%d/%d avgdist=%s"+
		" energy=%s/%s/%s/%s/%s/%s/%s sdc=%s due=%s tracked=%s",
		name, r.Cycles, f(r.Seconds), st(r.L1), st(r.L2), st(r.L3),
		r.ShiftOps, r.ShiftSteps, r.ShiftCycles, f(r.AvgShiftDistance),
		f(e.L1NJ), f(e.L2NJ), f(e.L3NJ), f(e.ShiftNJ), f(e.DetectNJ), f(e.DRAMNJ), f(e.LeakageJ),
		f(r.Tracker.ExpectedSDC()), f(r.Tracker.ExpectedDUE()), f(r.Tracker.Seconds()))
}

func TestResultsGolden(t *testing.T) {
	var lines []string
	for _, c := range goldenCases(t) {
		r, err := Run(c.w, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines = append(lines, goldenLine(c.name, r))
	}
	body := strings.Join(lines, "\n") + "\n"
	if os.Getenv("HIFI_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(resultsGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("missing golden (run with HIFI_UPDATE_GOLDEN=1 to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%s has %d lines, the run printed %d (HIFI_UPDATE_GOLDEN=1 regenerates)",
			resultsGolden, len(want), len(lines))
	}
	for i := range min(len(want), len(lines)) {
		if want[i] != lines[i] {
			t.Errorf("result drifted from %s:\ngot:    %s\ngolden: %s", resultsGolden, lines[i], want[i])
		}
	}
}
