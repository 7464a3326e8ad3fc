package memsim

// Golden test for what an attached observer sees: the metrics registry's
// final snapshot, every window the time-series sampler cuts, and the
// warmup/measure spans' counter deltas, over a fixed sequence of scaled
// runs sharing one registry, one sampler and one span collector.
// Regenerate with
// HIFI_UPDATE_GOLDEN=1 go test ./internal/memsim -run TestTelemetryGolden.

import (
	"context"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/faults"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/timeseries"
)

const telemetryGolden = "testdata/telemetry_golden.txt"

// telemetryCases are the runs the golden observes, in order. Each uses
// its own workload so span paths stay unique.
func telemetryCases(t *testing.T) []goldenCase {
	rtm := func(s shiftctrl.Scheme) Config {
		cfg := scaledConfig(energy.Racetrack, s)
		cfg.AccessesPerCore = 1000
		return cfg
	}
	adaptive := rtm(shiftctrl.PECCSAdaptive)
	adaptive.WarmupAccessesPerCore = 250
	adaptive.PromoEntries = 16
	eager := rtm(shiftctrl.PECCO)
	eager.EagerHead = true
	// Every injector kind at eight times its preset strength, so the
	// stuck domain fires within the run; SED reports its -1 as a DUE.
	plan, err := faults.Preset("mixed")
	if err != nil {
		t.Fatal(err)
	}
	faulty := rtm(shiftctrl.SED)
	faulty.FaultPlan = plan.Scale(8)
	sram := scaledConfig(energy.SRAM, shiftctrl.Baseline)
	sram.AccessesPerCore = 1000
	return []goldenCase{
		{"adaptive/warmup+promo", scaledWorkload("x264"), adaptive},
		{"pecc-o/eager", scaledWorkload("freqmine"), eager},
		{"sed/faults-mixed", scaledWorkload("fluidanimate"), faulty},
		{"sram", scaledWorkload("ferret"), sram},
	}
}

// floatSeries are the series whose values are sums of fractional
// per-operation rates; every other series counts whole events.
var floatSeries = []string{
	telemetry.MetricExpectedSDC, telemetry.MetricExpectedDUE, telemetry.MetricExpectedCorrections,
}

func isFloatSeries(name string) bool {
	for _, f := range floatSeries {
		if name == f {
			return true
		}
	}
	return false
}

// telemetryLines renders the observer state, one value a line: the key
// is every field but the last, the value the last.
func telemetryLines(snap telemetry.Snapshot, se timeseries.Series, spans telemetry.SpanExport) []string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	hist := func(count uint64, sum float64, counts []uint64) string {
		cs := make([]string, len(counts))
		for i, c := range counts {
			cs[i] = strconv.FormatUint(c, 10)
		}
		return fmt.Sprintf("%d/%s/%s", count, f(sum), strings.Join(cs, ","))
	}
	var out []string
	for _, c := range snap.Counters {
		out = append(out, "snapshot counter "+c.Name+" "+f(c.Value))
	}
	for _, g := range snap.Gauges {
		out = append(out, "snapshot gauge "+g.Name+" "+f(g.Value))
	}
	for _, h := range snap.Histograms {
		out = append(out, "snapshot histogram "+h.Name+" "+hist(h.Count, h.Sum, h.Counts))
	}
	out = append(out, fmt.Sprintf("series every=%d ticks=%d dropped=%d", se.Every, se.Ticks, se.Dropped))
	for _, w := range se.Windows {
		p := fmt.Sprintf("window %d ", w.Index)
		out = append(out, fmt.Sprintf("%sticks %d-%d", p, w.StartTick, w.EndTick))
		for _, m := range w.Marks {
			out = append(out, p+"mark "+m)
		}
		for _, c := range w.Counters {
			out = append(out, p+"counter "+c.Name+" "+f(c.Value))
		}
		for _, g := range w.Gauges {
			out = append(out, p+"gauge "+g.Name+" "+f(g.Value))
		}
		for _, h := range w.Histograms {
			out = append(out, p+"histogram "+h.Name+" "+hist(h.Count, h.Sum, h.Counts))
		}
	}
	names := map[uint64]string{}
	for _, sp := range spans.Spans {
		names[sp.ID] = sp.Name
	}
	for _, sp := range spans.Spans {
		if sp.Name != "warmup" && sp.Name != "measure" {
			continue
		}
		for _, m := range sp.Metrics {
			out = append(out, "span "+names[sp.Parent]+"/"+sp.Name+" "+m.Name+" "+f(m.Value))
		}
	}
	return out
}

// splitLine separates a golden line into its key and its value, and
// reports whether the value is a float sum compared within tolerance.
func splitLine(line string) (key, value string, float bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return line, "", false
	}
	fields := strings.Fields(line[:i])
	return line[:i], line[i+1:], isFloatSeries(fields[len(fields)-1])
}

// floatsAgree compares two float sums within 1e-9 relative: publishing a
// window's sum at once reorders the float additions behind it.
func floatsAgree(a, b string) bool {
	x, err1 := strconv.ParseFloat(a, 64)
	y, err2 := strconv.ParseFloat(b, 64)
	if err1 != nil || err2 != nil {
		return a == b
	}
	return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
}

// TestTelemetryGolden pins the registry, sampler and span view of four
// runs in sequence: a warmed-up p-ECC-S adaptive run with a promotion
// buffer, an eager-head p-ECC-O run, an SED run under the mixed fault
// preset, and an SRAM run. Event counts compare exactly; the expected
// SDC, DUE and correction sums within 1e-9 relative.
func TestTelemetryGolden(t *testing.T) {
	reg := telemetry.NewRegistry()
	sampler := timeseries.New(reg, timeseries.Options{Every: 512})
	col := telemetry.NewSpanCollector(reg)
	ctx := telemetry.WithCollector(context.Background(), col)
	for _, c := range telemetryCases(t) {
		c.cfg.Metrics, c.cfg.Sampler = reg, sampler
		if _, err := RunCtx(ctx, c.w, c.cfg); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	lines := telemetryLines(reg.Snapshot(), sampler.Export(), col.Export())
	if os.Getenv("HIFI_UPDATE_GOLDEN") != "" {
		body := strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(telemetryGolden, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(telemetryGolden)
	if err != nil {
		t.Fatalf("missing golden (run with HIFI_UPDATE_GOLDEN=1 to create): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != len(lines) {
		t.Errorf("%s has %d lines, the runs printed %d (HIFI_UPDATE_GOLDEN=1 regenerates)",
			telemetryGolden, len(want), len(lines))
	}
	bad := 0
	for i := range min(len(want), len(lines)) {
		wk, wv, float := splitLine(want[i])
		gk, gv, _ := splitLine(lines[i])
		if wk == gk && (wv == gv || float && floatsAgree(wv, gv)) {
			continue
		}
		if bad++; bad <= 20 {
			t.Errorf("telemetry drifted from %s at line %d:\ngot:    %s\ngolden: %s",
				telemetryGolden, i+1, lines[i], want[i])
		}
	}
	if bad > 20 {
		t.Errorf("... and %d more drifted lines", bad-20)
	}
}
