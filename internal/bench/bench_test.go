package bench

import (
	"path/filepath"
	"testing"
)

func snap(results ...Result) *Snapshot {
	return &Snapshot{Schema: SchemaVersion, DateUTC: "2026-01-01T00:00:00Z", Results: results}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	s := snap(Result{
		Name: "memsim-replay", Iterations: 10, NsPerOp: 1.5e6,
		BytesPerOp: 2048, AllocsPerOp: 12,
		Rates: map[string]float64{"accesses_per_sec": 1.2e6},
	})
	s.GitSHA, s.GoVersion, s.Host = "abc", "go1.x", "h"
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 1 || back.Results[0].NsPerOp != 1.5e6 {
		t.Fatalf("round-trip results = %+v", back.Results)
	}
	if back.Results[0].Rates["accesses_per_sec"] != 1.2e6 {
		t.Fatalf("rates lost: %+v", back.Results[0].Rates)
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_old.json")
	s := snap()
	s.Schema = SchemaVersion + 1
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("want schema mismatch error")
	}
}

// TestCompareFlagsTwentyPercentSlowdown is the acceptance check for the
// regression gate: a synthetic 20% slowdown must trip the default 10%
// threshold, while a 5% wobble must not.
func TestCompareFlagsTwentyPercentSlowdown(t *testing.T) {
	old := snap(
		Result{Name: "rtm-shift-loop", NsPerOp: 100},
		Result{Name: "pecc-decode", NsPerOp: 50},
	)
	cur := snap(
		Result{Name: "rtm-shift-loop", NsPerOp: 120}, // +20%
		Result{Name: "pecc-decode", NsPerOp: 52.5},   // +5%
	)
	deltas := Compare(old, cur)
	regs := Regressions(deltas, DefaultThreshold, DefaultAllocThreshold)
	if len(regs) != 1 || regs[0].Name != "rtm-shift-loop" {
		t.Fatalf("regressions = %+v, want only rtm-shift-loop", regs)
	}
	if r := regs[0].Ratio; r < 1.19 || r > 1.21 {
		t.Fatalf("ratio = %v, want ~1.2", r)
	}
}

func TestCompareImprovementAndMissing(t *testing.T) {
	old := snap(
		Result{Name: "a", NsPerOp: 100},
		Result{Name: "gone", NsPerOp: 10},
	)
	cur := snap(
		Result{Name: "a", NsPerOp: 60}, // faster: never a regression
		Result{Name: "new-one", NsPerOp: 999},
	)
	deltas := Compare(old, cur)
	regs := Regressions(deltas, DefaultThreshold, DefaultAllocThreshold)
	if len(regs) != 1 || regs[0].Name != "gone" || !regs[0].MissingNew {
		t.Fatalf("regressions = %+v, want only the missing benchmark", regs)
	}
	// A benchmark only the new snapshot has is an addition: no delta.
	if len(deltas) != 2 || deltas[0].Name != "a" || deltas[1].Name != "gone" {
		t.Fatalf("deltas = %+v, want a and gone only", deltas)
	}
}
