package main

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/experiments"
)

// A simulation that fails must come back as one error from runTables,
// not a panic, and the sweep must stop at the failing experiment.
func TestRunTablesReturnsJobFailure(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 1, JobTimeout: time.Nanosecond})
	opts := experiments.QuickRunOpts()
	opts.AccessesPerCore = 500
	opts.Eng = eng
	tables, err := runTables(context.Background(), nil, opts, []string{"table3", "fig10", "fig14"})
	if err == nil {
		t.Fatal("a sweep whose jobs time out returned no error")
	}
	if tables != nil {
		t.Errorf("tables = %v, want none after a failure", tables)
	}
	if msg := err.Error(); !strings.Contains(msg, "fig10") || !strings.Contains(msg, "deadline exceeded") || strings.Contains(msg, "\n") {
		t.Errorf("error = %q, want one line naming fig10 and the deadline", msg)
	}
	// fig10's first batch of 12 jobs failed; fig14 never started.
	if st := eng.Status(); st.Jobs != 12 || st.Timeouts == 0 {
		t.Errorf("engine status = %+v, want 12 jobs and timeouts", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runTables(ctx, nil, opts, []string{"table3"}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep: err = %v, want context.Canceled", err)
	}
}
