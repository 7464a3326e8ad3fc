package cliutil

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/log"
)

// TestObsEndToEnd drives the full flag → Start → span → Finish cycle and
// checks every artifact lands next to the metrics base, manifest included.
func TestObsEndToEnd(t *testing.T) {
	defer log.SetLevel(log.GetLevel())
	dir := t.TempDir()
	base := filepath.Join(dir, "run")

	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "trace seed")
	obs := AddFlags(fs, "tool")
	if err := fs.Parse([]string{"-metrics-out", base, "-spans-out", base, "-seed", "7", "-q"}); err != nil {
		t.Fatal(err)
	}
	_ = seed

	ctx := obs.Start()
	if log.GetLevel() != log.Error {
		t.Errorf("-q not applied: level %v", log.GetLevel())
	}
	if obs.Reg == nil || obs.Col == nil || obs.Man == nil {
		t.Fatal("Start did not build registry/collector/manifest")
	}
	obs.Reg.Counter("tool_work_total", "").Add(3)
	_, sp := telemetry.StartSpan(ctx, "work")
	sp.End()
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}

	for _, f := range []string{"run.json", "run.prom", "run.spans.json", "run.folded", "run.manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("artifact %s missing: %v", f, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "run.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Tool    string            `json:"tool"`
		Status  string            `json:"status"`
		Seed    uint64            `json:"seed"`
		Config  map[string]string `json:"config"`
		Outputs []string          `json:"outputs"`
	}
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	if man.Tool != "tool" || man.Status != "done" {
		t.Errorf("manifest tool/status = %q/%q", man.Tool, man.Status)
	}
	if man.Seed != 7 {
		t.Errorf("seed not auto-captured from flags: %d", man.Seed)
	}
	if man.Config["metrics-out"] != base {
		t.Errorf("resolved config missing metrics-out: %v", man.Config)
	}
	if len(man.Outputs) != 4 {
		t.Errorf("outputs = %v, want the 4 metric/span files", man.Outputs)
	}
}

// TestObsDisabled checks the zero-config path: no flags set, no registry,
// no collector, root span a no-op, Finish writes nothing.
func TestObsDisabled(t *testing.T) {
	defer log.SetLevel(log.GetLevel())
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	obs := AddFlags(fs, "tool")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	ctx := obs.Start()
	if obs.Reg != nil || obs.Col != nil {
		t.Error("registry/collector built without being asked for")
	}
	if _, sp := telemetry.StartSpan(ctx, "x"); sp != nil {
		t.Error("span recorded without a collector")
	}
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}
	if path := obs.manifestPath(); path != "" {
		t.Errorf("manifest path = %q, want none", path)
	}
}

// TestManifestPathPrecedence: explicit -manifest-out wins over the
// derived default, and extensions on the metrics base are trimmed.
func TestManifestPathPrecedence(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	obs := AddFlags(fs, "tool")
	if err := fs.Parse([]string{"-metrics-out", "out/run.json", "-manifest-out", "explicit.json"}); err != nil {
		t.Fatal(err)
	}
	if got := obs.manifestPath(); got != "explicit.json" {
		t.Errorf("manifestPath = %q, want explicit.json", got)
	}

	fs2 := flag.NewFlagSet("tool", flag.ContinueOnError)
	obs2 := AddFlags(fs2, "tool")
	if err := fs2.Parse([]string{"-metrics-out", "out/run.json"}); err != nil {
		t.Fatal(err)
	}
	if got := obs2.manifestPath(); got != "out/run.manifest.json" {
		t.Errorf("manifestPath = %q, want out/run.manifest.json", got)
	}
}

// TestObsProfileAndPerf drives the profiling flag surface: -profile
// captures pprof files under the derived base, -perf-out writes the
// hifi_perf_v1 analysis, and both land in the manifest's outputs.
func TestObsProfileAndPerf(t *testing.T) {
	defer log.SetLevel(log.GetLevel())
	dir := t.TempDir()
	base := filepath.Join(dir, "run")
	perfPath := filepath.Join(dir, "perf.json")

	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	obs := AddFlags(fs, "tool")
	if err := fs.Parse([]string{
		"-metrics-out", base, "-spans-out", base,
		"-profile", "heap,allocs", "-perf-out", perfPath, "-q",
	}); err != nil {
		t.Fatal(err)
	}
	ctx := obs.Start()
	if obs.Cap == nil {
		t.Fatal("Start did not build the profile capture")
	}
	if obs.Perf == nil {
		t.Fatal("Start did not build the perf handler")
	}
	_, sp := telemetry.StartSpan(ctx, "work")
	sp.End()
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}

	for _, f := range []string{"run.heap.pprof", "run.allocs.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("profile %s missing: %v", f, err)
		}
	}
	data, err := os.ReadFile(perfPath)
	if err != nil {
		t.Fatal(err)
	}
	var perf struct {
		Schema string `json:"schema"`
		Spans  []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(data, &perf); err != nil {
		t.Fatal(err)
	}
	if perf.Schema != "hifi_perf_v1" {
		t.Errorf("perf schema = %q", perf.Schema)
	}
	names := map[string]bool{}
	for _, s := range perf.Spans {
		names[s.Name] = true
	}
	if !names["work"] || !names["tool"] {
		t.Errorf("perf spans = %v, want work and the root", names)
	}

	var man struct {
		Outputs []string `json:"outputs"`
	}
	raw, err := os.ReadFile(filepath.Join(dir, "run.manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, out := range man.Outputs {
		if strings.HasSuffix(out, ".pprof") || out == perfPath {
			found++
		}
	}
	if found != 3 {
		t.Errorf("manifest outputs list %d profile/perf files, want 3: %v", found, man.Outputs)
	}
}

// TestObsPerfOutForcesSpans: -perf-out alone must switch span collection
// on, or the analysis would always be empty.
func TestObsPerfOutForcesSpans(t *testing.T) {
	defer log.SetLevel(log.GetLevel())
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	obs := AddFlags(fs, "tool")
	perfPath := filepath.Join(t.TempDir(), "perf.json")
	if err := fs.Parse([]string{"-perf-out", perfPath, "-q"}); err != nil {
		t.Fatal(err)
	}
	obs.Start()
	if obs.Col == nil {
		t.Fatal("-perf-out did not enable the span collector")
	}
	if err := obs.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(perfPath); err != nil {
		t.Errorf("perf export missing: %v", err)
	}
}

// TestProfileBasePrecedence: explicit -profile-out wins; else profiles
// share the manifest's stem; else the tool name.
func TestProfileBasePrecedence(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-profile-out", "p/base"}, "p/base"},
		{[]string{"-metrics-out", "out/run.json"}, "out/run"},
		{[]string{"-manifest-out", "m/run.manifest.json"}, "m/run"},
		{nil, "tool"},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("tool", flag.ContinueOnError)
		obs := AddFlags(fs, "tool")
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if got := obs.profileBase(); got != c.want {
			t.Errorf("profileBase(%v) = %q, want %q", c.args, got, c.want)
		}
	}
}

// -q wins over -v, and with neither the level HIFI_LOG set stays.
func TestLogLevel(t *testing.T) {
	defer log.SetLevel(log.GetLevel())
	for _, tc := range []struct {
		args []string
		want log.Level
	}{
		{nil, log.Trace},
		{[]string{"-v"}, log.Debug},
		{[]string{"-q"}, log.Error},
		{[]string{"-v", "-q"}, log.Error},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		l := AddLogLevel(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		log.SetLevel(log.Trace)
		l.Apply()
		if got := log.GetLevel(); got != tc.want {
			t.Errorf("%v: level %v, want %v", tc.args, got, tc.want)
		}
	}
}
