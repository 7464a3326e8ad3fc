package memsim

import (
	"math"
	"sync"
	"testing"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/timeseries"
)

// TestConcurrentRunsPublishExactTotals: runs that share one registry and
// one sampler at once publish the same totals as the same runs one after
// another, and the sampler's windows lose none of it. Run it under -race:
// every run publishes into the shared series from its own goroutine.
func TestConcurrentRunsPublishExactTotals(t *testing.T) {
	cases := telemetryCases(t)
	serial := telemetry.NewRegistry()
	for _, c := range cases {
		c.cfg.Metrics = serial
		if _, err := Run(c.w, c.cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}

	shared := telemetry.NewRegistry()
	sampler := timeseries.New(shared, timeseries.Options{Every: 512})
	var wg sync.WaitGroup
	for _, c := range cases {
		wg.Add(1)
		go func(c goldenCase) {
			defer wg.Done()
			c.cfg.Metrics, c.cfg.Sampler = shared, sampler
			if _, err := Run(c.w, c.cfg); err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		}(c)
	}
	wg.Wait()

	want, got := serial.Snapshot(), shared.Snapshot()
	if len(got.Counters) != len(want.Counters) || len(got.Histograms) != len(want.Histograms) {
		t.Fatalf("concurrent runs registered %d counters and %d histograms, serial runs %d and %d",
			len(got.Counters), len(got.Histograms), len(want.Counters), len(want.Histograms))
	}
	for i, w := range want.Counters {
		g := got.Counters[i]
		if g.Name != w.Name || g.Value != w.Value &&
			!(isFloatSeries(w.Name) && math.Abs(g.Value-w.Value) <= 1e-9*math.Abs(w.Value)) {
			t.Errorf("counter %s = %v concurrently, %s = %v serially", g.Name, g.Value, w.Name, w.Value)
		}
	}
	for i, w := range want.Histograms {
		g := got.Histograms[i]
		if g.Name != w.Name || g.Count != w.Count || g.Sum != w.Sum {
			t.Errorf("histogram %s = %d/%v concurrently, %s = %d/%v serially",
				g.Name, g.Count, g.Sum, w.Name, w.Count, w.Sum)
		}
	}
	if v, _ := got.Lookup(telemetry.MetricSimAccessesDone); v != 16000 {
		t.Errorf("%s = %v, want 16000", telemetry.MetricSimAccessesDone, v)
	}

	// The windows partition every counter's total and every access.
	se := sampler.Export()
	if se.Ticks != 16000 {
		t.Errorf("sampler ticked %d accesses, want 16000", se.Ticks)
	}
	sums := map[string]float64{}
	for _, w := range se.Windows {
		for _, c := range w.Counters {
			sums[c.Name] += c.Value
		}
	}
	for _, c := range got.Counters {
		if !isFloatSeries(c.Name) && sums[c.Name] != c.Value {
			t.Errorf("windows of %s sum to %v, its total is %v", c.Name, sums[c.Name], c.Value)
		}
	}
}
