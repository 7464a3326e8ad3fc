package memsim

import (
	"bytes"
	"testing"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/trace"
)

// recorded writes n accesses of a core's stream as a trace file and
// returns a replay of the records read back from it.
func recorded(t *testing.T, w trace.Workload, core int, seed uint64, n int) Source {
	t.Helper()
	var file bytes.Buffer
	if err := trace.WriteTrace(&file, trace.NewGenerator(w, core, seed).Take(n)); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadTrace(&file)
	if err != nil {
		t.Fatal(err)
	}
	return trace.NewReplay(recs)
}

func TestReplayMatchesLiveGeneration(t *testing.T) {
	// Recording a workload's streams and replaying them must reproduce
	// the simulation bit-exactly.
	w := smallWorkload("vips", 64<<10)
	cfg := smallConfig(energy.Racetrack, shiftctrl.SECDED)
	cfg.Cores = 2
	live, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Record the same streams through the serializer.
	for core := 0; core < cfg.Cores; core++ {
		cfg.Sources = append(cfg.Sources, recorded(t, w, core, cfg.Seed, cfg.AccessesPerCore))
	}
	replayed, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if live.Cycles != replayed.Cycles {
		t.Errorf("cycles differ: live %d vs replay %d", live.Cycles, replayed.Cycles)
	}
	if live.ShiftSteps != replayed.ShiftSteps {
		t.Errorf("shift steps differ: %d vs %d", live.ShiftSteps, replayed.ShiftSteps)
	}
	if live.L3.Misses != replayed.L3.Misses {
		t.Errorf("L3 misses differ: %d vs %d", live.L3.Misses, replayed.L3.Misses)
	}
}
