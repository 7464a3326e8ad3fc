package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"racetrack/hifi/internal/bench"
)

// TestPrintSnapshotSortsRates: rates print in name order, so two runs
// with equal results print equal text whatever the map's order.
func TestPrintSnapshotSortsRates(t *testing.T) {
	snap := &bench.Snapshot{Results: []bench.Result{
		{Name: "memsim-replay", NsPerOp: 1500, BytesPerOp: 64, AllocsPerOp: 2, Rates: map[string]float64{
			"shifts_per_sec": 3e6, "accesses_per_sec": 2.5e6, "ops_per_sec": 1e3, "bytes_per_sec": 7,
		}},
		{Name: "pecc-decode", NsPerOp: 20},
	}}
	want := "memsim-replay                    1500 ns/op       64 B/op      2 allocs/op" +
		"  accesses_per_sec=2.5e+06  bytes_per_sec=7  ops_per_sec=1e+03  shifts_per_sec=3e+06\n" +
		"pecc-decode                        20 ns/op        0 B/op      0 allocs/op\n"
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		printSnapshot(&buf, snap)
		if got := buf.String(); got != want {
			t.Fatalf("print %d:\n%q\nwant\n%q", i, got, want)
		}
	}
}

// A threshold that would turn the regression gate off without saying so
// is refused with a message naming the flag; a negative
// -alloc-threshold keeps its documented meaning, gate off.
func TestCheckThresholds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		threshold, alloc float64
		flag             string // "" = valid
	}{
		{bench.DefaultThreshold, bench.DefaultAllocThreshold, ""},
		{0, 0, ""},
		{0.5, -1, ""},
		{0.1, math.Inf(-1), ""},
		{nan, 0.1, "-threshold"},
		{inf, 0.1, "-threshold"},
		{-0.1, 0.1, "-threshold"},
		{0.1, nan, "-alloc-threshold"},
		{nan, nan, "-threshold"},
	} {
		err := checkThresholds(tc.threshold, tc.alloc)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("checkThresholds(%g, %g) = %v", tc.threshold, tc.alloc, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("checkThresholds(%g, %g) = %v, want an error naming %s", tc.threshold, tc.alloc, err, tc.flag)
		}
	}
}
