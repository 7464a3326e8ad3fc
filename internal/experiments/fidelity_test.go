// Paper-anchor assertions for the experiment suite. The anchors
// themselves — which cell, which published number, what tolerance —
// live in internal/fidelity as data; these tests only generate the
// tables and evaluate the shipped anchor set, so the test suite and
// the CI fidelity gate (hifi-report -fidelity-out) enforce the exact
// same claims. External test package: fidelity imports experiments.
package experiments_test

import (
	"testing"

	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/fidelity"
)

// analyticTables generates the cheap closed-form tables.
func analyticTables(t *testing.T, opts experiments.RunOpts) map[string]experiments.Table {
	t.Helper()
	out := make(map[string]experiments.Table)
	for _, k := range []string{"fig1", "table2", "table3", "table5"} {
		out[k] = run(t, k, opts)
	}
	return out
}

// run generates one table, failing the test on an error.
func run(t *testing.T, key string, opts experiments.RunOpts) experiments.Table {
	t.Helper()
	tab, err := experiments.Run(key, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func evaluate(t *testing.T, tables map[string]experiments.Table) fidelity.Scorecard {
	t.Helper()
	sc := fidelity.Evaluate(fidelity.Anchors(), tables)
	for _, r := range sc.Anchors {
		switch r.Status {
		case fidelity.Fail:
			t.Errorf("FAIL %s [%s]: %s", r.ID, r.Source, r.Detail)
		case fidelity.Warn:
			t.Logf("warn %s [%s]: %s", r.ID, r.Source, r.Detail)
		}
	}
	return sc
}

// TestAnalyticAnchors checks every anchor on the closed-form tables:
// Table 2 per-distance rates, the Fig 1 MTTF curve, Table 3a, and the
// Table 5 overhead numbers must match the paper without running a
// simulation.
func TestAnalyticAnchors(t *testing.T) {
	sc := evaluate(t, analyticTables(t, experiments.QuickRunOpts()))
	if sc.Pass == 0 {
		t.Fatal("no anchors evaluated")
	}
	// Simulation-backed anchors skip here; analytic ones must all run.
	for _, r := range sc.Anchors {
		if r.Status == fidelity.Skip {
			switch r.Experiment {
			case "fig1", "table2", "table3", "table5":
				t.Errorf("analytic anchor %s skipped", r.ID)
			}
		}
	}
}

// TestSimulationAnchorsScaled runs the simulation-backed figures once
// at scaled size and holds them to the shipped anchor set: the Fig
// 10/11 MTTF orderings, Fig 14 latency ratios, the Fig 16 capacity-
// sensitive split, and the Fig 17/18 energy relationships.
func TestSimulationAnchorsScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	opts := experiments.QuickRunOpts()
	tables := analyticTables(t, opts)
	for _, k := range []string{"fig10", "fig11", "fig14", "fig16", "fig17", "fig18"} {
		tables[k] = run(t, k, opts)
		if n := len(tables[k].Rows); n != 12 {
			t.Errorf("%s: rows = %d, want 12 workloads", k, n)
		}
	}
	sc := evaluate(t, tables)
	if sc.Skip != 0 {
		t.Errorf("%d anchors skipped; the full table set should leave none", sc.Skip)
	}
	if sc.Fail != 0 {
		t.Errorf("scorecard: %d pass, %d warn, %d fail", sc.Pass, sc.Warn, sc.Fail)
	}
}
