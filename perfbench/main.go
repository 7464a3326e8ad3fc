// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds from one process,
// checks its outputs, and prints every metric BENCHMARK.json declares by
// name with its unit:
//
//	perfbench -workload direct-rtm -seed 1 -seconds 12 -trace 0
//
// With -trace 1 the run also replays a sample of the workload's
// simulations through the per-layer kernels, writes DIR/W.spans.json,
// DIR/W.folded and DIR/W.layers.json under -trace-out, and prints the
// per-layer metrics instead. Two sets of saved run outputs are compared
// with
//
//	perfbench -agree A1.out A2.out ... -- B1.out B2.out ...
//
// The last line of a run's standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// run's provenance. A run whose outputs fail a check still prints both
// and exits 1. See README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"racetrack/hifi/internal/telemetry"
)

// workloads are the benchmark's input sets; BENCHMARK.json says why each
// was chosen.
var workloads = []workload{
	{name: "direct-rtm", clients: 1, open: openDirectRTM},
	{name: "direct-sram", clients: 1, open: openDirectSRAM},
	{name: "serve-cold", clients: servedClients, open: openServeCold},
	{name: "serve-warm", clients: servedClients, open: openServeWarm},
}

// digestsJSON holds each workload's outputs_sha256 at -seed 1 and the
// default sizes. A seed-1 run whose digest differs fails its output check.
//
//go:embed testdata/digests.json
var digestsJSON []byte

// runTimeout bounds one run, setups and checks included.
const runTimeout = 170 * time.Second

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (direct-rtm, direct-sram, serve-cold, serve-warm)")
		seed     = flag.Uint64("seed", 1, "seed every input of the run is drawn from")
		seconds  = flag.Float64("seconds", 12, "length of the timed window")
		traceArg = flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
		traceOut = flag.String("trace-out", filepath.Join(".bench_build", "trace"), "directory for the traced run's span and layer files")
		agree    = flag.Bool("agree", false, "compare two sets of saved run outputs: -agree A... -- B...")
	)
	flag.Parse()
	if *agree {
		os.Exit(runAgree(os.Stdout, flag.Args()))
	}
	if *traceArg != 0 && *traceArg != 1 {
		fail(2, "-trace must be 0 or 1")
	}
	os.Exit(runOne(*name, *seed, *seconds, *traceArg == 1, *traceOut))
}

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(code)
}

// provenance is the line printed before the result: what ran, where, and
// what it produced.
type provenance struct {
	Bench     string  `json:"bench"`
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     int     `json:"trace"`
	GitSHA    string  `json:"git_sha"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	Ops       int     `json:"ops"`
	Failed    int     `json:"failed"`
	// TailPercentile is the highest percentile the op count supports with
	// ten samples beyond it; op_p90_ms needs it to be at least 0.9.
	TailPercentile float64  `json:"tail_percentile"`
	OutputsSHA256  string   `json:"outputs_sha256"`
	Failures       []string `json:"failures,omitempty"`
	// HostSlowdown is the run's median calibration time over the
	// reference; Raw holds the end-to-end values before scaling by it.
	HostSlowdown float64            `json:"host_slowdown"`
	Raw          map[string]float64 `json:"raw"`
	// EndToEnd is a traced run's own end-to-end values: minus the untraced
	// values, the tracing overhead.
	EndToEnd map[string]float64 `json:"end_to_end,omitempty"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runOne(name string, seed uint64, seconds float64, traced bool, traceOut string) int {
	decl, err := readDeclaration(declPath)
	if err != nil {
		fail(2, "%v (run from the repository root)", err)
	}
	if err := checkThreadClock(); err != nil {
		fail(2, "host-speed calibration needs Linux's thread CPU clock: %v", err)
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fail(2, "unknown workload %q", name)
	}
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fail(1, "%v", err)
	}
	defer os.RemoveAll(tmp)
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()

	p := params{seed: seed, seconds: seconds, traced: traced, size: defaultSizes, tmp: tmp}
	out, err := measure(ctx, *wl, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	metrics, err := decl.attach(out.values, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if seed == 1 {
		if err := checkDigest(name, out.digest); err != nil {
			out.failures = append(out.failures, err.Error())
		}
	}

	man := telemetry.NewManifest("perfbench")
	if man.GitSHA == "unknown" {
		fmt.Fprintln(os.Stderr, "perfbench: warning: git SHA unknown; set HIFI_GIT_SHA to record it")
	}
	prov := provenance{
		Bench: "perfbench", Workload: name, Seed: seed, Seconds: seconds, Trace: boolInt(traced),
		GitSHA: man.GitSHA, GoVersion: man.GoVersion, NProc: man.NumCPU,
		Ops: out.attempted, Failed: out.failed, TailPercentile: tailPercentile(out.attempted),
		OutputsSHA256: out.digest, Failures: out.failures,
		HostSlowdown: out.slowdown, Raw: out.raw,
	}
	if traced {
		prov.EndToEnd = out.endToEnd
		if err := writeTrace(traceOut, name, out, metrics); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
	}
	res := result{
		Correct:   out.failed == 0 && len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}
	for _, f := range out.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, f)
	}
	printJSON(prov)
	printJSON(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(1, "%v", err)
	}
	fmt.Println(string(b))
}

// checkDigest compares a seed-1 run's output digest with the committed one.
func checkDigest(name, got string) error {
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return fmt.Errorf("testdata/digests.json: %w", err)
	}
	if want[name] != got {
		return fmt.Errorf("outputs_sha256 %s differs from the committed seed-1 digest %q", got, want[name])
	}
	return nil
}

// writeTrace writes the traced run's span export and per-layer values.
func writeTrace(dir, name string, out *outcome, metrics map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, _, err := out.spans.WriteFiles(filepath.Join(dir, name)); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{
		"workload":   name,
		"per_layer":  metrics,
		"end_to_end": out.endToEnd,
		"ops":        out.attempted,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".layers.json"), append(b, '\n'), 0o644)
}
