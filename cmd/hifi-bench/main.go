// Command hifi-bench runs the pinned benchmark suite and writes a
// versioned snapshot, or compares two snapshots and fails on regression.
// The suite covers the hot paths of the reproduction: the RTM shift loop,
// p-ECC decode, a full memsim replay, one small experiment sweep, the
// parallel experiment engine (serial vs 4-worker vs warm-cache), event
// emits and a warm job's SSE stream, and the serve daemon's
// submit-to-first-event path — micro and macro, so a slow decoder, a
// slow simulator, or a slow job API all trip the gate.
//
// Usage:
//
//	hifi-bench                                  # run, write BENCH_<date>.json (BENCH_<date>_2.json, ... once taken)
//	hifi-bench -quick -out BENCH_ci.json        # smaller workloads (CI smoke)
//	hifi-bench -compare BENCH_old.json          # run now, compare, exit 1 on >10% slowdown
//	hifi-bench -compare BENCH_old.json BENCH_new.json   # compare two files
//	hifi-bench -trajectory BENCH_*.json         # first-vs-last deltas over >= 2 snapshots
//	hifi-bench -trajectory -svg-out trend.svg BENCH_*.json   # plus the trend chart
//
// A -threshold that is negative or not finite, or a NaN
// -alloc-threshold, exits 2 with a message naming the flag: either
// would turn the regression gate off.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"racetrack/hifi/internal/bench"
	"racetrack/hifi/internal/cache"
	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/pecc"
	"racetrack/hifi/internal/serve"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/log"
	"racetrack/hifi/internal/trace"
)

func main() {
	var (
		out        = flag.String("out", "", "snapshot output path (default BENCH_<date>.json, or BENCH_<date>_<n>.json when taken)")
		quick      = flag.Bool("quick", false, "smaller workloads for CI smoke runs")
		compare    = flag.Bool("compare", false, "compare mode: hifi-bench -compare OLD [NEW]")
		threshold  = flag.Float64("threshold", bench.DefaultThreshold, "relative ns/op slowdown treated as a regression")
		allocThr   = flag.Float64("alloc-threshold", bench.DefaultAllocThreshold, "relative allocs/op growth treated as a regression (negative disables the gate)")
		trajectory = flag.Bool("trajectory", false, "trajectory mode: hifi-bench -trajectory SNAP.json... (>= 2 snapshots)")
		svgOut     = flag.String("svg-out", "", "with -trajectory, write the trend chart SVG here")
	)
	logLevel := cliutil.AddLogLevel(flag.CommandLine)
	ev := cliutil.AddEventsOut(flag.CommandLine, "hifi-bench")
	flag.Parse()
	logLevel.Apply()
	if err := checkThresholds(*threshold, *allocThr); err != nil {
		log.Errorf("hifi-bench: %v", err)
		os.Exit(2)
	}

	// hifi-bench does not carry the full Obs surface (it has no status
	// server and must not measure its own telemetry), so it drives the
	// event sink directly. bus is nil without -events-out; every Emit
	// below is a no-op then.
	bus, err := ev.Open()
	if err != nil {
		log.Fatalf("hifi-bench: %v", err)
	}
	start := time.Now()
	bus.Emit(events.Event{Type: events.RunStart, Name: "hifi-bench"})
	finish := func() {
		bus.Emit(events.Event{Type: events.RunFinish, Name: "hifi-bench", MS: time.Since(start).Milliseconds()})
		if err := ev.Close(); err != nil {
			log.Fatalf("hifi-bench: events: %v", err)
		}
	}

	if *compare {
		runCompare(flag.Args(), *quick, *threshold, *allocThr, bus, finish)
		return
	}
	if *trajectory {
		runTrajectory(flag.Args(), *svgOut)
		finish()
		return
	}

	snap := runSuite(*quick)
	path := *out
	if path == "" {
		path, err = snap.WriteNew("BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json")
	} else {
		err = snap.WriteFile(path)
	}
	if err != nil {
		log.Fatalf("hifi-bench: %v", err)
	}
	log.Infof("wrote %s (%d benchmarks)", path, len(snap.Results))
	printSnapshot(os.Stdout, snap)
	finish()
}

// checkThresholds rejects gate settings no slowdown can breach: a NaN
// compares false with every ratio. A negative -alloc-threshold is the
// documented way to turn the allocation gate off.
func checkThresholds(threshold, allocThr float64) error {
	if !(threshold >= 0) || math.IsInf(threshold, 1) {
		return fmt.Errorf("-threshold must be a finite number >= 0, got %g", threshold)
	}
	if math.IsNaN(allocThr) {
		return fmt.Errorf("-alloc-threshold must be a number (negative disables the gate), got %g", allocThr)
	}
	return nil
}

// runCompare loads the baseline, obtains the candidate (second file or a
// fresh run), prints the per-benchmark deltas, and exits 1 if any exceeds
// the ns/op or allocs/op threshold. Each regression is also emitted as a
// bench.regression event (Name=benchmark, V=ns/op ratio) before finish
// seals the event log, so a CI gate failure leaves a machine-readable
// trace alongside the human one.
func runCompare(args []string, quick bool, threshold, allocThr float64, bus *events.Bus, finish func()) {
	if len(args) < 1 || len(args) > 2 {
		log.Errorf("hifi-bench: -compare needs OLD.json [NEW.json]")
		os.Exit(2)
	}
	old, err := bench.ReadFile(args[0])
	if err != nil {
		log.Fatalf("hifi-bench: %v", err)
	}
	var cur *bench.Snapshot
	if len(args) == 2 {
		if cur, err = bench.ReadFile(args[1]); err != nil {
			log.Fatalf("hifi-bench: %v", err)
		}
	} else {
		cur = runSuite(quick)
	}

	deltas := bench.Compare(old, cur)
	printDeltas(deltas)
	regs := bench.Regressions(deltas, threshold, allocThr)
	if len(regs) > 0 {
		for _, d := range regs {
			var detail string
			switch {
			case d.MissingNew:
				detail = "missing from new snapshot"
				log.Errorf("hifi-bench: %s missing from new snapshot", d.Name)
			case d.Regressed(threshold):
				detail = fmt.Sprintf("ns/op regressed %.1f%%", 100*(d.Ratio-1))
				log.Errorf("hifi-bench: %s regressed %.1f%% (threshold %.0f%%)",
					d.Name, 100*(d.Ratio-1), 100*threshold)
			default:
				detail = fmt.Sprintf("allocs/op grew %d -> %d", d.OldAllocs, d.NewAllocs)
				log.Errorf("hifi-bench: %s allocs/op grew %d -> %d (threshold %.0f%%)",
					d.Name, d.OldAllocs, d.NewAllocs, 100*allocThr)
			}
			bus.Emit(events.Event{Type: events.BenchRegression, Name: d.Name, Detail: detail, V: d.Ratio})
		}
		finish()
		os.Exit(1)
	}
	log.Infof("no regression beyond %.0f%% ns/op or %.0f%% allocs/op across %d benchmarks",
		100*threshold, 100*allocThr, len(deltas))
	finish()
}

// printDeltas renders the shared delta table for compare and trajectory.
func printDeltas(deltas []bench.Delta) {
	fmt.Printf("%-24s %14s %14s %8s %18s\n", "benchmark", "old ns/op", "new ns/op", "ratio", "allocs/op")
	for _, d := range deltas {
		if d.MissingNew {
			fmt.Printf("%-24s %14.0f %14s %8s %18s\n", d.Name, d.Old, "missing", "-", "-")
			continue
		}
		fmt.Printf("%-24s %14.0f %14.0f %7.2fx %8d -> %7d\n",
			d.Name, d.Old, d.New, d.Ratio, d.OldAllocs, d.NewAllocs)
	}
}

// runTrajectory folds the named snapshots into first-vs-last deltas and,
// optionally, the SVG trend chart. Informational: it never exits non-zero
// on a slowdown — history is reported, not gated.
func runTrajectory(paths []string, svgOut string) {
	tr, err := bench.LoadTrajectory(paths)
	if err != nil {
		log.Fatalf("hifi-bench: %v", err)
	}
	first, last := tr.Snapshots[0], tr.Snapshots[len(tr.Snapshots)-1]
	fmt.Printf("trajectory over %d snapshots: %s (%s) -> %s (%s)\n",
		len(tr.Snapshots), first.Path, first.DateUTC, last.Path, last.DateUTC)
	printDeltas(tr.Deltas())
	if svgOut != "" {
		if err := os.WriteFile(svgOut, []byte(tr.SVG()), 0o644); err != nil {
			log.Fatalf("hifi-bench: %v", err)
		}
		log.Infof("wrote %s", svgOut)
	}
}

// runSuite executes the pinned suite and stamps provenance. Workload sizes
// are fixed per mode so snapshots are comparable run to run.
func runSuite(quick bool) *bench.Snapshot {
	man := telemetry.NewManifest("hifi-bench") // reuse its provenance capture
	snap := &bench.Snapshot{
		Schema:    bench.SchemaVersion,
		DateUTC:   time.Now().UTC().Format(time.RFC3339),
		GitSHA:    man.GitSHA,
		GoVersion: man.GoVersion,
		Host:      man.Hostname,
		Quick:     quick,
	}
	for _, b := range []struct {
		name string
		run  func(bool) bench.Result
	}{
		{"rtm-shift-loop", benchShiftLoop},
		{"pecc-decode", benchPECCDecode},
		{"memsim-replay", benchMemsimReplay},
		{"sweep-small", benchSweep},
		{"engine-parallel-sweep", benchEngineSweep},
		{"events-emit", benchEventsEmit},
		{"events-sse", benchEventsSSE},
		{"serve-submit", benchServeSubmit},
	} {
		log.Infof("benchmarking %s", b.name)
		r := b.run(quick)
		r.Name = b.name
		log.Debugf("%s: %.0f ns/op, %d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		snap.Add(r)
	}
	return snap
}

// printSnapshot writes one line per benchmark, its rates in name order.
func printSnapshot(w io.Writer, s *bench.Snapshot) {
	for _, r := range s.Results {
		fmt.Fprintf(w, "%-24s %12.0f ns/op %8d B/op %6d allocs/op", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		names := make([]string, 0, len(r.Rates))
		for k := range r.Rates {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %s=%.3g", k, r.Rates[k])
		}
		fmt.Fprintln(w)
	}
}

// toResult converts a testing result, deriving domain rates from the known
// per-op work: rates[k] = perOp[k] / seconds-per-op.
func toResult(r testing.BenchmarkResult, perOp map[string]float64) bench.Result {
	out := bench.Result{
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if out.NsPerOp > 0 && len(perOp) > 0 {
		out.Rates = make(map[string]float64, len(perOp))
		for k, v := range perOp {
			out.Rates[k] = v * 1e9 / out.NsPerOp
		}
	}
	return out
}

// benchShiftLoop measures the raw head-position bookkeeping: the
// AccessDistance/MoveHead pair over a strided line pattern.
func benchShiftLoop(quick bool) bench.Result {
	const ways = 8
	geom := cache.DefaultRTM()
	capacity := int64(1 << 20)
	// The pattern is deterministic, so count its per-op shift work once.
	dry := cache.NewRTMArray(geom, capacity)
	const probe = 1 << 12
	for i := 0; i < probe; i++ {
		shiftLoopStep(dry, i, ways)
	}
	stepsPerOp := float64(dry.ShiftSteps) / probe
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		arr := cache.NewRTMArray(geom, capacity)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shiftLoopStep(arr, i, ways)
		}
	})
	return toResult(res, map[string]float64{"shift_steps_per_sec": stepsPerOp})
}

func shiftLoopStep(arr *cache.RTMArray, i, ways int) {
	g, d, dir := arr.AccessDistance(i*7%2048, i%ways, ways)
	arr.MoveHead(g, d, dir, 1)
}

// benchPECCDecode measures one SECDED p-ECC decode of a window carrying a
// detectable position error.
func benchPECCDecode(quick bool) bench.Result {
	code := pecc.SECDED(8)
	w := code.ExpectedWindow(3)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if r := code.Decode(2, w); !r.Detected {
				b.Fatal("expected detection")
			}
		}
	})
	return toResult(res, map[string]float64{"decodes_per_sec": 1})
}

// benchConfig is the pinned memsim-replay configuration: racetrack LLC,
// adaptive p-ECC-S, scaled hierarchy, ferret trace.
func benchConfig(quick bool) memsim.Config {
	cfg := memsim.DefaultConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
	cfg.L1Capacity = 2 << 10
	cfg.L2Capacity = 8 << 10
	cfg.L3Capacity = 1 << 20
	cfg.AccessesPerCore = 4000
	if quick {
		cfg.AccessesPerCore = 1000
	}
	cfg.Seed = 1
	return cfg
}

// benchMemsimReplay measures one full hierarchy simulation per op, with no
// registry and no span collector attached — it doubles as the telemetry
// zero-overhead guard: this path must not pay for observability it did not
// ask for.
func benchMemsimReplay(quick bool) bench.Result {
	cfg := benchConfig(quick)
	w, err := trace.ByName("ferret")
	if err != nil {
		log.Fatalf("hifi-bench: %v", err)
	}
	w.WorkingSetB >>= 7
	if w.WorkingSetB < 12<<10 {
		w.WorkingSetB = 12 << 10
	}
	// One dry run for the deterministic per-op counters.
	r, err := memsim.Run(w, cfg)
	if err != nil {
		log.Fatalf("hifi-bench: %v", err)
	}
	accesses := float64(cfg.AccessesPerCore * cfg.Cores)
	shifts := float64(r.ShiftSteps)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := memsim.Run(w, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	return toResult(res, map[string]float64{
		"accesses_per_sec":    accesses,
		"shift_steps_per_sec": shifts,
	})
}

// benchEventsEmit measures one structured-event emit on a detached bus
// (ring buffer only: no sink, no waiting reader) — the cost every
// instrumented hot path pays once an event plane is attached. The
// nil-bus fast path is guarded separately by an allocs/op test in the
// events package (must be exactly 0).
func benchEventsEmit(quick bool) bench.Result {
	bus := events.New(0)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bus.Emit(events.Event{Type: events.JobFinished, Name: "bench", Worker: 1, N: int64(i)})
		}
	})
	return toResult(res, map[string]float64{"events_per_sec": 1})
}

// benchEventsSSE measures one SSE stream of a warm served job: what
// events.Handler writes for the 812 events a warm resubmission of a
// seven-experiment sweep emits on its job's bus (401 job.queued and 401
// job.cache_hit among 7 run.phase and 3 serve.job.*, each with a 32-hex
// trace ID), replayed to a client that discards it. Its allocs/op is a
// small constant, whatever the number of events, and the allocation
// gate keeps it so.
func benchEventsSSE(quick bool) bench.Result {
	bus := events.New(0)
	bus.SetTraceID("0af7651916cd43dd8448eb211c80319c")
	bus.Emit(events.Event{Type: events.ServeJobAccepted, Name: "j-000001", Detail: "7b563554d0e1f2a3"})
	bus.Emit(events.Event{Type: events.ServeJobStarted, Name: "j-000001"})
	for x := 0; x < 7; x++ {
		bus.Emit(events.Event{Type: events.RunPhase, Name: fmt.Sprintf("fig%d", 10+x)})
		jobs := 401 / 7
		if x < 401%7 {
			jobs++
		}
		for i := 0; i < jobs; i++ {
			bus.Emit(events.Event{Type: events.JobQueued, Name: fmt.Sprintf("Racetrack/pECC-S/ideal:w%02d", i), N: int64(jobs)})
		}
		for i := 0; i < jobs; i++ {
			bus.Emit(events.Event{Type: events.JobCacheHit, Name: fmt.Sprintf("Racetrack/pECC-S/ideal:w%02d", i)})
		}
	}
	bus.Emit(events.Event{Type: events.ServeJobFinished, Name: "j-000001", MS: 4, N: 7})
	done := make(chan struct{})
	close(done) // the stream ends after the replay
	h := events.Handler(bus, done)
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/j-000001/events", nil)
	w := discardResponse{http.Header{}}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.ServeHTTP(w, req)
		}
	})
	return toResult(res, map[string]float64{"events_per_sec": float64(bus.Seq())})
}

// discardResponse is an http.ResponseWriter and http.Flusher that
// keeps nothing.
type discardResponse struct{ hdr http.Header }

func (d discardResponse) Header() http.Header       { return d.hdr }
func (discardResponse) WriteHeader(int)             {}
func (discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (discardResponse) Flush()                      {}

// benchSweep measures one small simulation-backed experiment sweep (Fig 14
// on the scaled hierarchy): the macro path the CLIs actually execute.
func benchSweep(quick bool) bench.Result {
	opts := experiments.QuickRunOpts()
	if quick {
		opts.AccessesPerCore = 1000
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			experiments.Fig14(opts)
		}
	})
	return toResult(res, nil)
}

// benchEngineSweep times the same sweep (Fig 10, 36 simulations) through
// the experiment engine three ways — serial, 4 workers, and a warm-cache
// re-run — and records the ratios. One sweep is one op, timed by hand
// rather than through testing.Benchmark: the comparisons between the
// three passes are the measurement, and each pass is expensive enough
// that one iteration is representative. Speedup depends on the host's
// core count; the snapshot records whatever this host delivers.
func benchEngineSweep(quick bool) bench.Result {
	opts := experiments.QuickRunOpts()
	if quick {
		opts.AccessesPerCore = 1000
	}
	sweep := func(eng *engine.Engine) time.Duration {
		o := opts
		o.Eng = eng
		start := time.Now()
		experiments.Fig10(o)
		return time.Since(start)
	}

	serialT := sweep(engine.New(engine.Options{Workers: 1}))
	parT := sweep(engine.New(engine.Options{Workers: 4}))

	dir, err := os.MkdirTemp("", "hifi-bench-cache-*")
	if err != nil {
		log.Fatalf("hifi-bench: %v", err)
	}
	defer os.RemoveAll(dir)
	openCache := func() *engine.Cache {
		c, err := engine.OpenCache(dir, "bench")
		if err != nil {
			log.Fatalf("hifi-bench: %v", err)
		}
		return c
	}
	sweep(engine.New(engine.Options{Workers: 4, Cache: openCache()}))
	warmEng := engine.New(engine.Options{Workers: 4, Cache: openCache()})
	warmT := sweep(warmEng)
	st := warmEng.Status()

	rates := map[string]float64{
		"parallel_speedup_x":   float64(serialT) / float64(parT),
		"warm_cache_speedup_x": float64(serialT) / float64(warmT),
	}
	if st.Jobs > 0 {
		rates["warm_cache_hit_frac"] = float64(st.CacheHits) / float64(st.Jobs)
	}
	return bench.Result{
		Iterations: 1,
		NsPerOp:    float64(parT.Nanoseconds()),
		Rates:      rates,
	}
}

// benchServeSubmit measures the daemon's admission hot path over real HTTP:
// one op is a POST /v1/jobs of a small analytic spec followed by reading the
// first frame off the job's SSE stream — the submit-to-first-event latency a
// client observes. Every op uses a fresh seed so no submission coalesces
// onto a live twin; table3 is analytic, so the runners drain jobs faster
// than the client can submit them and the queue never backs up.
func benchServeSubmit(quick bool) bench.Result {
	dir, err := os.MkdirTemp("", "hifi-bench-serve-*")
	if err != nil {
		log.Fatalf("hifi-bench: %v", err)
	}
	defer os.RemoveAll(dir)
	srv := serve.New(serve.Options{
		CacheDir: dir,
		Runners:  4,
		Queue:    256,
		Metrics:  telemetry.NewRegistry(),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := srv.Drain(ctx); err != nil {
			log.Errorf("hifi-bench: serve drain: %v", err)
		}
	}()

	client := ts.Client()
	seed := uint64(0)
	submitAndAwaitEvent := func() error {
		seed++
		body, err := json.Marshal(serve.Spec{Run: []string{"table3"}, Scaled: true, Seed: seed})
		if err != nil {
			return err
		}
		resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		var st struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		_ = resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		}
		ev, err := client.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
		if err != nil {
			return err
		}
		defer ev.Body.Close()
		sc := bufio.NewScanner(ev.Body)
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "data:") {
				return nil // first event frame landed
			}
		}
		return fmt.Errorf("stream for %s closed before the first event", st.ID)
	}

	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := submitAndAwaitEvent(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return toResult(res, map[string]float64{"submits_per_sec": 1})
}
