package hifi_test

// End-to-end checks of the command-line surface: the binaries are built
// from this checkout and run as a user would run them.

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/trace"
)

// buildCLIs builds the named cmd/ binaries into a temporary directory
// and returns it.
func buildCLIs(t *testing.T, names ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binaries")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the binaries with")
	}
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// runCLI runs one command line, e.g. "hifi-mttf -seglen 1", from dir and
// returns its stdout, stderr and exit code.
func runCLI(t *testing.T, dir, cmdline string) (stdout, stderr string, code int) {
	t.Helper()
	args := strings.Fields(cmdline)
	cmd := exec.Command(filepath.Join(dir, args[0]), args[1:]...)
	cmd.Dir = t.TempDir()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatalf("%s: %v", cmdline, err)
	}
	return out.String(), errb.String(), code
}

// specError is the error hifi-serve answers 400 with for s.
func specError(t *testing.T, s experiments.Spec) string {
	t.Helper()
	_, err := s.Normalize()
	if err == nil {
		t.Fatalf("spec %+v normalized without error", s)
	}
	return err.Error()
}

// Every invalid value a CLI takes exits 2 before anything runs, with a
// message naming it, and nothing panics. The sweep CLIs answer with the
// spec error hifi-serve answers 400 with.
func TestCLIRejectsInvalidValues(t *testing.T) {
	dir := buildCLIs(t, "hifi-experiments", "hifi-report", "hifi-chaos", "hifi-sim",
		"hifi-mttf", "hifi-design", "hifi-trace", "hifi-serve", "hifi-watch", "hifi-bench")
	negAccesses := specError(t, experiments.Spec{Accesses: -1})
	negTrials := specError(t, experiments.Spec{MCTrials: -5})
	unknown := specError(t, experiments.Spec{Run: []string{"fig99"}})
	for _, tc := range []struct{ cmdline, want string }{
		{"hifi-experiments -accesses -1", negAccesses},
		{"hifi-experiments -mc-trials -5", negTrials},
		{"hifi-experiments -run fig99", unknown},
		{"hifi-experiments -run fig14,FIG99 -scaled", unknown},
		{"hifi-report -accesses -1", negAccesses},
		{"hifi-chaos -accesses -1", negAccesses},
		{"hifi-chaos -intensities 0,NaN", `bad intensity "NaN"`},
		{"hifi-chaos -schemes ,", "empty -schemes"},
		{"hifi-sim -accesses -1", "accesses per core (-1) must not be negative"},
		{"hifi-sim -accesses 100 -warmup 500", "warmup accesses (500) must be in [0, accesses per core = 100)"},
		{"hifi-sim -warmup -5", "warmup accesses (-5)"},
		{"hifi-sim -workload nope", "-workload nope"},
		{"hifi-sim -tech nope", "-tech nope"},
		{"hifi-sim -scheme nope", "-scheme nope"},
		{"hifi-mttf -table -distance 99", "-distance"},
		{"hifi-mttf -table -distance -2", "-distance"},
		{"hifi-mttf -table -distance 0", "-distance"},
		{"hifi-mttf -stripes 0", "-stripes"},
		{"hifi-mttf -stripes -3", "-stripes"},
		{"hifi-mttf -target-years 0", "-target-years"},
		{"hifi-mttf -seglen 0", "-seglen"},
		{"hifi-mttf -seglen 1", "-seglen"},
		{"hifi-mttf -intensity 0", "-intensity"},
		{"hifi-mttf -intensity -5", "-intensity"},
		{"hifi-design -intensity 0", "-intensity"},
		{"hifi-design -intensity -5", "-intensity"},
		{"hifi-trace -core 99 -workload canneal -o t.hftr", "-core"},
		{"hifi-trace -core -1 -workload canneal -o t.hftr", "-core"},
		{"hifi-trace -n -5 -workload canneal -o t.hftr", "-n"},
		{"hifi-trace -workload nope -n 10 -o t.hftr", "-workload nope"},
		// A job runs once: the retry and deadline flags are gone.
		{"hifi-experiments -job-retries 1", "-job-retries"},
		{"hifi-experiments -retry-backoff 1ms", "-retry-backoff"},
		{"hifi-experiments -job-timeout 1s", "-job-timeout"},
		{"hifi-report -job-retries 0", "-job-retries"},
		{"hifi-chaos -retry-backoff 0", "-retry-backoff"},
		{"hifi-sim -job-timeout 1ns", "-job-timeout"},
		{"hifi-serve -retries 1", "-retries"},
		{"hifi-serve -job-timeout 1s", "-job-timeout"},
		// The daemon's jobs record no spans and no time series of their
		// own, so it takes no flags to write them.
		{"hifi-serve -spans-out s", "-spans-out"},
		{"hifi-serve -timeseries-out ts.json", "-timeseries-out"},
		{"hifi-serve -timeseries-every 10", "-timeseries-every"},
		// The fault flags are resolved as the daemon resolves a spec's.
		{"hifi-experiments -faults nope -run table3", `-faults nope -fault-intensity 1: faults: unknown preset "nope"`},
		{"hifi-experiments -fault-plan missing.json", "-fault-plan"},
		{"hifi-experiments -faults temp -fault-intensity NaN -run fig10 -scaled", "-fault-intensity NaN"},
		{"hifi-sim -faults nope", "-faults nope"},
		{"hifi-sim -faults temp -fault-intensity NaN", "-fault-intensity NaN"},
		{"hifi-sim -faults temp -fault-intensity -1", "-fault-intensity -1"},
		{"hifi-chaos -faults nope", "-faults nope"},
		{"hifi-chaos -faults temp -fault-intensity NaN", "-fault-intensity NaN"},
		{"hifi-chaos -faults temp -fault-intensity 1e308 -intensities 0,10", "-intensities point 10"},
		// The daemon, the dashboard and the bench gate check theirs before
		// anything listens or is read.
		{"hifi-serve -rate NaN", "-rate"},
		{"hifi-serve -rate -1", "-rate"},
		{"hifi-serve -runners -1", "-runners"},
		{"hifi-serve -queue -1", "-queue"},
		{"hifi-serve -workers -1", "-workers"},
		{"hifi-serve -burst -1", "-burst"},
		{"hifi-serve -max-accesses -1", "-max-accesses"},
		{"hifi-serve -cache-max-bytes -1", "-cache-max-bytes"},
		{"hifi-watch -interval 0 events.ndjson", "-interval"},
		{"hifi-watch -interval -1s events.ndjson", "-interval"},
		{"hifi-bench -threshold NaN -alloc-threshold NaN -compare a.json b.json", "-threshold"},
		{"hifi-bench -threshold -0.1 -compare a.json b.json", "-threshold"},
		{"hifi-bench -threshold +Inf -compare a.json b.json", "-threshold"},
		{"hifi-bench -alloc-threshold NaN -compare a.json b.json", "-alloc-threshold"},
	} {
		stdout, stderr, code := runCLI(t, dir, tc.cmdline)
		if code != 2 || !strings.Contains(stderr, tc.want) || stdout != "" ||
			strings.Contains(stderr, "panic") || strings.Contains(stderr, "retrying") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 2, no output and an error holding %q",
				tc.cmdline, code, stdout, stderr, tc.want)
		}
	}
}

// hifi-trace -stats on a trace of no records prints its count alone and
// exits 0: no ratio over zero records is printed as NaN.
func TestTraceStatsOfEmptyTrace(t *testing.T) {
	dir := buildCLIs(t, "hifi-trace")
	var file bytes.Buffer
	if err := trace.WriteTrace(&file, nil); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.hftr")
	if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runCLI(t, dir, "hifi-trace -stats -i "+path)
	if want := path + ": 0 records\n"; code != 0 || stdout != want || stderr != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 0 and %q alone", code, stdout, stderr, want)
	}
}

// Spellings of one sweep print the same tables: seed 0 is the default
// seed 1 on every CLI, an all-blank -run is every experiment (the spec's
// rule), and -fault-intensity 0 scales a plan to the nominal device
// (the CLI's rule, which a spec's fault_intensity 0, read as 1, cannot
// express).
func TestCLISpellingsOfOneSweep(t *testing.T) {
	dir := buildCLIs(t, "hifi-experiments", "hifi-report")
	for _, tc := range []struct{ a, b string }{
		{"hifi-report -scaled -accesses 200 -q -seed 0", "hifi-report -scaled -accesses 200 -q -seed 1"},
		{"hifi-experiments -run fig4 -scaled -q -seed 0", "hifi-experiments -run fig4 -scaled -q"},
		{"hifi-experiments -run , -scaled -accesses 200 -q", "hifi-experiments -scaled -accesses 200 -q"},
		{"hifi-experiments -run fig10,fig11 -scaled -accesses 300 -q -faults temp -fault-intensity 0",
			"hifi-experiments -run fig10,fig11 -scaled -accesses 300 -q"},
	} {
		outA, errA, codeA := runCLI(t, dir, tc.a)
		outB, errB, codeB := runCLI(t, dir, tc.b)
		if codeA != 0 || codeB != 0 || errA != "" || errB != "" {
			t.Errorf("%s: exit %d %q; %s: exit %d %q", tc.a, codeA, errA, tc.b, codeB, errB)
			continue
		}
		if outA == "" || outA != outB {
			t.Errorf("%s printed %d bytes that differ from the %d of %s", tc.a, len(outA), len(outB), tc.b)
		}
	}
}
