package experiments

import (
	"testing"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/trace"
)

// TestStreamsExactOnRosters checks the stream store's record format
// against every workload the experiments simulate, at scaled and full
// working sets: a kept stream replays exactly what a fresh generator
// yields.
func TestStreamsExactOnRosters(t *testing.T) {
	if testing.Short() {
		t.Skip("draws millions of accesses")
	}
	const n = 25_000 // past canneal's first phase burst
	for _, o := range []RunOpts{QuickRunOpts(), DefaultRunOpts()} {
		s := trace.NewStreams()
		for _, w := range o.workloads() {
			for core := 0; core < 4; core++ {
				want := trace.NewGenerator(w, core, o.Seed).Take(n)
				for pass := 0; pass < 2; pass++ {
					src := s.Source(w, core, o.Seed, n)
					for i := range want {
						if a := src.Next(); a != want[i] {
							t.Fatalf("%s (%d B) core %d pass %d: access %d = %+v, want %+v",
								w.Name, w.WorkingSetB, core, pass, i, a, want[i])
						}
					}
				}
			}
		}
		if g, r := s.Counts(); g != 48 || r != 48 {
			t.Errorf("scaled=%v: %d generated, %d replayed; want 48 of each", o.Scaled, g, r)
		}
	}
}

// TestStreamsFig14 counts the store's work on a serial, uncached
// engine: the baseline column generates the roster's 48 per-core
// streams and the three columns after it replay them.
func TestStreamsFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	o := QuickRunOpts()
	o.streams = trace.NewStreams()
	Fig14(o)
	if g, r := o.streams.Counts(); g != 48 || r != 144 {
		t.Errorf("Fig14: %d streams generated, %d replayed; want 48 and 144", g, r)
	}
}

// TestUnfitStreamMatchesNoStore runs a workload whose phase bursts do
// not fit a record: the store keeps nothing, and every simulation
// matches a run without a store.
func TestUnfitStreamMatchesNoStore(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	o := quick()
	w := o.workloads()[0]
	w.PhasePeriod = 100
	w.PhaseGapMean = 1e12
	jobs := func(o RunOpts) []engine.Job {
		var js []engine.Job
		for _, s := range []shiftctrl.Scheme{shiftctrl.Baseline, shiftctrl.PECCO} {
			js = append(js, o.simJob(w, o.config(energy.Racetrack, s), "unfit"))
		}
		return js
	}
	want := o.runSims(jobs(o))
	shared := o.withStreams()
	got := shared.runSims(jobs(shared))
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("job %d with a store = %+v, without = %+v", i, got[i], want[i])
		}
	}
	if g, r := shared.streams.Counts(); g != 8 || r != 0 {
		t.Errorf("%d streams generated, %d replayed; want 8 and 0", g, r)
	}
}

// TestWarmSweepGeneratesNoStream reruns Fig14 over a warm cache: every
// job is a cache hit, so no stream is generated or replayed.
func TestWarmSweepGeneratesNoStream(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	dir := t.TempDir()
	cold := quick()
	cold.Eng = engAt(t, 2, dir)
	want := Fig14(cold).String()

	warm := quick()
	warm.Eng = engAt(t, 2, dir)
	warm.streams = trace.NewStreams()
	if got := Fig14(warm).String(); got != want {
		t.Errorf("warm table differs from cold:\ncold:\n%s\nwarm:\n%s", want, got)
	}
	if g, r := warm.streams.Counts(); g != 0 || r != 0 {
		t.Errorf("warm sweep: %d streams generated, %d replayed; want none", g, r)
	}
	if st := warm.Eng.Status(); st.Executed != 0 {
		t.Errorf("warm sweep executed %d jobs", st.Executed)
	}
}
