package experiments

// Golden test for the simulation-backed tables: the rendered text of
// every figure and ablation that runs memsim, plus the chaos curves,
// pinned byte for byte. TestParallelSweepByteIdentical compares worker
// counts within one build; this file compares builds, so a change to
// the simulator, the experiments or the way they feed memsim cannot
// move a table silently. Regenerate with
// HIFI_UPDATE_GOLDEN=1 go test ./internal/experiments -run TestSimulatedTablesGolden.

import (
	"os"
	"strings"
	"testing"

	"racetrack/hifi/internal/shiftctrl"
)

const tablesGolden = "testdata/tables_golden.txt"

func TestSimulatedTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	o := QuickRunOpts()
	o.AccessesPerCore = 1_000
	var b strings.Builder
	for _, k := range []string{"fig10", "fig11", "fig14", "fig16", "fig17", "fig18", "abl-promo"} {
		tab, err := Run(k, o)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	c := DefaultChaosOpts(o)
	c.Intensities = []float64{0, 2}
	c.Schemes = []shiftctrl.Scheme{shiftctrl.Baseline, shiftctrl.PECCSAdaptive}
	for _, tab := range Degradation(c) {
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	body := b.String()
	if os.Getenv("HIFI_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(tablesGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatalf("missing golden (run with HIFI_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(golden) != body {
		t.Errorf("simulated tables drifted from %s (HIFI_UPDATE_GOLDEN=1 regenerates):\ngot:\n%s\ngolden:\n%s",
			tablesGolden, body, golden)
	}
}
