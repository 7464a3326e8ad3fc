package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/faults"
)

// A simulation that fails must come back as one error from Sweep, not a
// panic, and the sweep must stop at the failing experiment; a cancelled
// context stops it before the next one.
func TestSweepReturnsJobFailure(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1})
	opts := QuickRunOpts()
	opts.AccessesPerCore = 500
	opts.Eng = eng
	// memsim refuses a plan with an unknown injector kind, so every
	// simulation fails the same way, and table3, which simulates
	// nothing, runs.
	opts.FaultPlan = &faults.Plan{Injectors: []faults.Injector{{Kind: "unknown-kind"}}}
	var ran []string
	tables, err := Sweep(context.Background(), []string{"table3", "fig10", "fig14"}, opts,
		func(_ int, k string) { ran = append(ran, k) }, nil)
	if err == nil {
		t.Fatal("a sweep whose jobs fail returned no error")
	}
	if tables != nil {
		t.Errorf("tables = %v, want none after a failure", tables)
	}
	if msg := err.Error(); !strings.Contains(msg, "fig10") || !strings.Contains(msg, "unknown injector kind") || strings.Contains(msg, "\n") {
		t.Errorf("error = %q, want one line naming fig10 and the refused plan", msg)
	}
	// fig10's first batch of 12 jobs failed; fig14 never started.
	if st := eng.Status(); st.Jobs != 12 || st.Failures == 0 || st.Executed != 0 {
		t.Errorf("engine status = %+v, want 12 jobs, failures and nothing executed", st)
	}
	if got := strings.Join(ran, ","); got != "table3,fig10" {
		t.Errorf("before ran for %s, want table3,fig10", got)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, []string{"table3"}, opts, nil, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep: err = %v, want context.Canceled", err)
	}
}

// Sweep hands each table to after in order, and an error from after ends
// the sweep with that error.
func TestSweepHandsBackEachTable(t *testing.T) {
	keys := []string{"table3", "table5", "fig1"}
	var got []string
	tables, err := Sweep(context.Background(), keys, QuickRunOpts(), nil, func(i int, k string, tab Table) error {
		if keys[i] != k || tab.Title == "" {
			t.Errorf("after(%d, %q) got table %q", i, k, tab.Title)
		}
		got = append(got, k)
		return nil
	})
	if err != nil || len(tables) != len(keys) || strings.Join(got, ",") != strings.Join(keys, ",") {
		t.Fatalf("Sweep = %d tables, %v; after saw %v", len(tables), err, got)
	}

	stop := errors.New("stop")
	n := 0
	_, err = Sweep(context.Background(), keys, QuickRunOpts(), nil, func(int, string, Table) error {
		n++
		return stop
	})
	if !errors.Is(err, stop) || n != 1 {
		t.Errorf("after's error: Sweep = %v after %d tables, want stop after 1", err, n)
	}
}

// The printed form of a sweep: text tables one blank line apart, CSV
// tables back to back. Text of a sweep's tables is what the CLIs print
// one table at a time.
func TestRenderRule(t *testing.T) {
	a := Table{Title: "A", Header: []string{"x"}, Rows: [][]string{{"1"}}}
	b := Table{Title: "B", Header: []string{"y"}, Rows: [][]string{{"2"}}}
	tables := map[string]Table{"a": a, "b": b}
	if got, want := Text([]string{"a", "b"}, tables, false), a.String()+"\n"+b.String(); got != want {
		t.Errorf("text = %q, want %q", got, want)
	}
	if got, want := Text([]string{"a", "b"}, tables, true), a.CSV()+b.CSV(); got != want {
		t.Errorf("csv = %q, want %q", got, want)
	}
	var sb strings.Builder
	for i, k := range []string{"a", "b"} {
		if err := Render(&sb, i, tables[k], false); err != nil {
			t.Fatal(err)
		}
	}
	if sb.String() != Text([]string{"a", "b"}, tables, false) {
		t.Errorf("streamed render %q differs from Text", sb.String())
	}
}
