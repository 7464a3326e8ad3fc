package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/telemetry"
)

// quick returns a small scaled configuration for the determinism tests:
// Fig10 at these sizes is 36 simulations, enough to exercise the worker
// pool without dominating the test run.
func quick() RunOpts {
	return RunOpts{AccessesPerCore: 1_000, Seed: 1, Scaled: true, MCTrials: 5_000}
}

func engAt(t *testing.T, workers int, dir string) *engine.Engine {
	t.Helper()
	opts := engine.Options{Workers: workers}
	if dir != "" {
		c, err := engine.OpenCache(dir, "det-test")
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = c
	}
	return engine.New(opts)
}

// TestParallelSweepByteIdentical is the determinism golden test: the
// same sweep run serially, with 8 workers, and again from a warm cache
// must render byte-identical tables.
func TestParallelSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}

	serial := quick()
	serial.Eng = engAt(t, 1, "")
	want := Fig10(serial).String()

	par := quick()
	par.Eng = engAt(t, 8, "")
	if got := Fig10(par).String(); got != want {
		t.Errorf("-jobs=8 table differs from -jobs=1:\nserial:\n%s\nparallel:\n%s", want, got)
	}

	// Cold run populates the cache; warm run must serve every job from it
	// and still render the same bytes.
	dir := t.TempDir()
	cold := quick()
	cold.Eng = engAt(t, 4, dir)
	if got := Fig10(cold).String(); got != want {
		t.Errorf("cold cached table differs from serial baseline")
	}
	warm := quick()
	warm.Eng = engAt(t, 4, dir)
	if got := Fig10(warm).String(); got != want {
		t.Errorf("warm cached table differs from serial baseline")
	}
	st := warm.Eng.Status()
	if st.Executed != 0 || st.CacheHits == 0 || st.CacheHits != st.Jobs {
		t.Errorf("warm run should be 100%% cache hits: %+v", st)
	}
}

// TestCacheSharedAcrossExperiments checks that experiments enumerating
// overlapping (config, workload) tuples — Fig10's SED batch also appears
// in Fig11 — deduplicate through the content-addressed cache.
func TestCacheSharedAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	dir := t.TempDir()

	o1 := quick()
	o1.Eng = engAt(t, 4, dir)
	Fig10(o1)
	after10 := o1.Eng.Status()
	if after10.CacheHits != 0 {
		t.Fatalf("first experiment should be all misses: %+v", after10)
	}

	o2 := quick()
	o2.Eng = engAt(t, 4, dir)
	Fig11(o2)
	after11 := o2.Eng.Status()
	if after11.CacheHits == 0 {
		t.Errorf("Fig11 shares SED/SECDED runs with Fig10; expected cross-experiment cache hits, got %+v", after11)
	}
}

// readCountingFS counts the reads that reach the cache's filesystem.
type readCountingFS struct {
	engine.FS
	reads atomic.Int64
}

func (f *readCountingFS) ReadFile(path string) ([]byte, error) {
	f.reads.Add(1)
	return f.FS.ReadFile(path)
}

// TestWarmSweepSimulatesNothing resubmits the served warm sweep (the
// six simulation-backed figures plus abl-promo) over the cache a first
// pass filled. The second pass, on a fresh engine and registry, must
// resolve all 401 jobs as cache hits, read each of the 112 distinct
// results once, simulate nothing, and render the same bytes.
func TestWarmSweepSimulatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed experiment")
	}
	keys := []string{"fig10", "fig11", "fig14", "fig16", "fig17", "fig18", "abl-promo"}
	dir := t.TempDir()
	pass := func() (string, engine.Status, telemetry.Snapshot, int64) {
		o := RunOpts{AccessesPerCore: 300, Seed: 1, Scaled: true, Metrics: telemetry.NewRegistry()}
		fsys := &readCountingFS{FS: engine.OS()}
		c, err := engine.OpenCacheFS(dir, "warm-test", fsys)
		if err != nil {
			t.Fatal(err)
		}
		o.Eng = engine.New(engine.Options{Workers: 2, Cache: c, Metrics: o.Metrics})
		var b strings.Builder
		for _, k := range keys {
			tab, err := Run(k, o)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(tab.String())
		}
		return b.String(), o.Eng.Status(), o.Metrics.Snapshot(), fsys.reads.Load()
	}
	cold, _, coldSnap, _ := pass()
	if _, ok := coldSnap.Lookup(telemetry.MetricShiftOps); !ok {
		t.Fatalf("cold pass recorded no %s", telemetry.MetricShiftOps)
	}
	warm, st, snap, reads := pass()
	if warm != cold {
		t.Errorf("warm tables differ from the cold pass:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if st.Jobs != 401 || st.Executed != 0 || st.CacheHits != 401 || reads != 112 {
		t.Errorf("warm pass: %d jobs, %d executed, %d cache hits, %d cache reads; want 401, 0, 401, 112",
			st.Jobs, st.Executed, st.CacheHits, reads)
	}
	if _, ok := snap.Lookup(telemetry.MetricShiftOps); ok {
		t.Errorf("warm pass recorded %s: something simulated", telemetry.MetricShiftOps)
	}
	for _, c := range snap.Counters {
		if c.Value != 0 && !strings.HasPrefix(c.Name, "hifi_engine_") {
			t.Errorf("warm pass counted %s = %v", c.Name, c.Value)
		}
	}
}
