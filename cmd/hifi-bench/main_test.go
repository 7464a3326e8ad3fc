package main

import (
	"bytes"
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
