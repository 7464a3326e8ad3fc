package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
)

// testJobs builds n jobs whose Fn records execution counts in execs and
// returns a deterministic payload derived from the index.
func testJobs(n int, execs *atomic.Int64) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			Key:   fmt.Sprintf("test-job|%d", i),
			Label: fmt.Sprintf("job%d", i),
			Fn: func(ctx context.Context) (any, error) {
				execs.Add(1)
				return map[string]int{"index": i, "square": i * i}, nil
			},
		}
	}
	return jobs
}

func TestRunOrderAndDeterminism(t *testing.T) {
	var execs atomic.Int64
	jobs := testJobs(16, &execs)

	serial, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(Options{Workers: 8}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 32 {
		t.Fatalf("executions = %d, want 32", got)
	}
	for i := range jobs {
		if string(serial.Payloads[i]) != string(parallel.Payloads[i]) {
			t.Errorf("payload %d differs: serial %s parallel %s",
				i, serial.Payloads[i], parallel.Payloads[i])
		}
	}
	if serial.Executed != 16 || parallel.Executed != 16 {
		t.Errorf("executed: serial %d parallel %d, want 16/16", serial.Executed, parallel.Executed)
	}
	// Payloads decode in submission order regardless of completion order.
	for i, p := range parallel.Payloads {
		m, err := Decode[map[string]int](p)
		if err != nil {
			t.Fatal(err)
		}
		if m["index"] != i || m["square"] != i*i {
			t.Errorf("payload %d = %v", i, m)
		}
	}
}

func TestCacheReuse(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	jobs := testJobs(8, &execs)

	e1 := New(Options{Workers: 4, Cache: cache})
	r1, err := e1.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Executed != 8 || r1.CacheHits != 0 {
		t.Fatalf("cold run: executed %d hits %d, want 8/0", r1.Executed, r1.CacheHits)
	}

	// A second engine over the same cache dir executes nothing.
	cache2, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Options{Workers: 4, Cache: cache2})
	r2, err := e2.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Executed != 0 || r2.CacheHits != 8 {
		t.Fatalf("warm run: executed %d hits %d, want 0/8", r2.Executed, r2.CacheHits)
	}
	if got := execs.Load(); got != 8 {
		t.Fatalf("total executions = %d, want 8", got)
	}
	for i := range jobs {
		if string(r1.Payloads[i]) != string(r2.Payloads[i]) {
			t.Errorf("cached payload %d differs from fresh", i)
		}
	}

	// A different code version misses everything.
	cache3, err := OpenCache(dir, "v-other")
	if err != nil {
		t.Fatal(err)
	}
	r3, err := New(Options{Workers: 2, Cache: cache3}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Executed != 8 {
		t.Fatalf("version-bumped run: executed %d, want 8", r3.Executed)
	}
}

// A job that panics runs once: the panic is recovered into one error
// naming the job and holding the panic value, with one job.panic event,
// and the process carries on.
func TestPanicIsolation(t *testing.T) {
	bus := events.New(0)
	var calls atomic.Int64
	bad := Job{
		Key:   "always-bad",
		Label: "always-bad",
		Fn: func(ctx context.Context) (any, error) {
			calls.Add(1)
			panic("permanent explosion")
		},
	}
	e := New(Options{Events: bus})
	_, err := e.Run(context.Background(), []Job{bad})
	if err == nil || !strings.Contains(err.Error(), `job "always-bad"`) ||
		!strings.Contains(err.Error(), "panic: permanent explosion") {
		t.Fatalf("err = %v, want one naming the job and its panic", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("panicking job ran %d times, want 1", n)
	}
	all, _ := bus.Since(0, nil)
	count := map[events.Type]int{}
	for _, ev := range all {
		count[ev.Type]++
	}
	if count[events.JobPanic] != 1 || count[events.JobFailed] != 1 || count[events.JobFinished] != 0 {
		t.Errorf("events = %v, want one job.panic and one job.failed", count)
	}
	if s := e.Status(); s.Failures != 1 || s.Executed != 0 {
		t.Errorf("status = %+v, want 1 failure and nothing executed", s)
	}
}

func TestFailureCancelsQueuedJobs(t *testing.T) {
	var execs atomic.Int64
	jobs := make([]Job, 32)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Key: fmt.Sprintf("j%d", i),
			Fn: func(ctx context.Context) (any, error) {
				if i == 0 {
					return nil, fmt.Errorf("boom")
				}
				execs.Add(1)
				return i, nil
			},
		}
	}
	e := New(Options{Workers: 1})
	rep, err := e.Run(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected error")
	}
	if q := e.Status().Queued; q != 0 {
		t.Errorf("queued after the failed batch = %d, want 0", q)
	}
	// With one worker and job 0 failing first, the queue drains without
	// executing most of the remaining jobs.
	if got := execs.Load(); got == 31 {
		t.Errorf("all queued jobs still executed after failure")
	}
	if rep == nil {
		t.Fatal("report must be returned alongside the error")
	}
}

// A batch settles only its own queued jobs: a batch that ends while
// another waits on a blocked worker leaves the waiting batch's count.
func TestSideBySideBatchesKeepTheirQueuedCounts(t *testing.T) {
	e := New(Options{Workers: 1})
	started, release := make(chan struct{}), make(chan struct{})
	slow := make([]Job, 3)
	for i := range slow {
		i := i
		slow[i] = Job{Key: fmt.Sprintf("slow%d", i), Fn: func(context.Context) (any, error) {
			if i == 0 {
				close(started)
				<-release
			}
			return i, nil
		}}
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), slow)
		done <- err
	}()
	<-started
	fast := []Job{{Key: "fast", Fn: func(context.Context) (any, error) { return 0, nil }}}
	if _, err := e.Run(context.Background(), fast); err != nil {
		t.Error(err)
	}
	if q := e.Status().Queued; q != 2 {
		t.Errorf("queued after the fast batch = %d, want 2 (the slow batch's undispatched jobs)", q)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if q := e.Status().Queued; q != 0 {
		t.Errorf("queued after both batches = %d, want 0", q)
	}
}

// An interrupted sweep finishes by running again over the same cache:
// the first sweep dies at job 5, and a fresh engine over the cache
// serves jobs 0-4 as hits and executes only 5-9.
func TestRerunAfterFailureExecutesOnlyTheRest(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	jobs := make([]Job, 10)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Key:   fmt.Sprintf("sweep-job|%d", i),
			Label: fmt.Sprintf("sw%d", i),
			Fn: func(ctx context.Context) (any, error) {
				if i == 5 {
					return nil, fmt.Errorf("simulated crash")
				}
				execs.Add(1)
				return i * 10, nil
			},
		}
	}
	if _, err := New(Options{Workers: 1, Cache: cache}).Run(context.Background(), jobs); err == nil {
		t.Fatal("crash did not surface")
	}
	if got := execs.Load(); got != 5 {
		t.Fatalf("first pass executed %d jobs, want 5 (serial order up to the crash)", got)
	}

	// The crash is "fixed"; the rerun resolves jobs 0-4 from the cache.
	jobs[5].Fn = func(ctx context.Context) (any, error) {
		execs.Add(1)
		return 50, nil
	}
	cache2, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := New(Options{Workers: 1, Cache: cache2}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHits != 5 || rep.Executed != 5 {
		t.Errorf("rerun: %d hits, %d executed; want 5/5", rep.CacheHits, rep.Executed)
	}
	if got := execs.Load(); got != 10 {
		t.Errorf("executions over both passes = %d, want 10", got)
	}
	clean, err := New(Options{Workers: 1}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if string(rep.Payloads[i]) != string(clean.Payloads[i]) {
			t.Errorf("payload %d: rerun %s, uninterrupted %s", i, rep.Payloads[i], clean.Payloads[i])
		}
	}
}

func TestMetricsAndStatus(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir()
	cache, _ := OpenCache(dir, "v-test")
	var execs atomic.Int64
	jobs := testJobs(6, &execs)
	e := New(Options{Workers: 3, Cache: cache, Metrics: reg})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(telemetry.MetricEngineJobs, "").Value(); got != 12 {
		t.Errorf("jobs counter = %v, want 12", got)
	}
	if got := reg.Counter(telemetry.MetricEngineExecuted, "").Value(); got != 6 {
		t.Errorf("executed counter = %v, want 6", got)
	}
	if got := reg.Counter(telemetry.MetricEngineCacheHits, "").Value(); got != 6 {
		t.Errorf("hits counter = %v, want 6", got)
	}
	if got := reg.Gauge(telemetry.MetricEngineQueueLen, "").Value(); got != 0 {
		t.Errorf("queue depth after drain = %v, want 0", got)
	}
	if got := reg.Gauge(telemetry.MetricEngineBusy, "").Value(); got != 0 {
		t.Errorf("busy workers after drain = %v, want 0", got)
	}
	s := e.Status()
	if s.Jobs != 12 || s.Executed != 6 || s.CacheHits != 6 || s.Failures != 0 {
		t.Errorf("status = %+v", s)
	}
	want := "engine: 12 jobs, 6 executed, 6 cache hits, 0 failures, 0 corrupt"
	if e.Summary() != want {
		t.Errorf("summary = %q, want %q", e.Summary(), want)
	}
}

func TestStatusHandlerHeaders(t *testing.T) {
	e := New(Options{Workers: 1})
	rr := httptest.NewRecorder()
	e.StatusHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/engine", nil))
	if got := rr.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Errorf("Content-Type = %q", got)
	}
	if got := rr.Header().Get("Cache-Control"); got != "no-store" {
		t.Errorf("Cache-Control = %q", got)
	}
}

// TestJobLifecycleEvents checks the engine's emissions on the event
// bus: a job.queued prefix in submission order, one started/finished
// pair per executed job, and cache_hit on the warm re-run.
func TestJobLifecycleEvents(t *testing.T) {
	bus := events.New(0)
	dir := t.TempDir()
	cache, _ := OpenCache(dir, "v-test")
	var execs atomic.Int64
	jobs := testJobs(3, &execs)
	e := New(Options{Workers: 2, Cache: cache, Events: bus})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Workers: 2, Cache: cache, Events: bus})
	if _, err := warm.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}

	all, _ := bus.Since(0, nil)
	count := map[events.Type]int{}
	for _, e := range all {
		count[e.Type]++
	}
	if count[events.JobQueued] != 6 || count[events.JobStarted] != 3 ||
		count[events.JobFinished] != 3 || count[events.JobCacheHit] != 3 {
		t.Errorf("event counts = %v", count)
	}
	// The queued prefix precedes any execution and preserves submission
	// order within each Run call.
	for i := 0; i < 3; i++ {
		if all[i].Type != events.JobQueued || all[i].Name != jobs[i].Label || all[i].N != 3 {
			t.Errorf("event %d = %+v, want queued %q n=3", i, all[i], jobs[i].Label)
		}
	}
}

func TestSubSeed(t *testing.T) {
	a := SubSeed(1, "canneal")
	b := SubSeed(1, "canneal")
	if a != b {
		t.Fatal("SubSeed not deterministic")
	}
	if SubSeed(1, "canneal") == SubSeed(1, "dedup") {
		t.Error("distinct names collide")
	}
	if SubSeed(1, "canneal") == SubSeed(2, "canneal") {
		t.Error("distinct base seeds collide")
	}
	if SubSeed(0, "") == 0 {
		t.Error("SubSeed must never return 0 (reserved for config defaults)")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, -2.25e-19, 1e300} {
		f := Float(v)
		b, err := f.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var g Float
		if err := g.UnmarshalJSON(b); err != nil {
			t.Fatal(err)
		}
		if g != f {
			t.Errorf("%v round-tripped to %v", f, g)
		}
	}
	inf := Float(1)
	if err := inf.UnmarshalJSON([]byte(`"+inf"`)); err != nil || float64(inf) <= 1e308 {
		t.Errorf("+inf decode: %v %v", inf, err)
	}
}

func TestKeyJSONStable(t *testing.T) {
	type key struct {
		A int
		B string
	}
	if KeyJSON(key{1, "x"}) != KeyJSON(key{1, "x"}) {
		t.Error("KeyJSON not stable")
	}
	if KeyJSON(key{1, "x"}) == KeyJSON(key{2, "x"}) {
		t.Error("KeyJSON collides")
	}
	if HashKey("v1", "k") == HashKey("v2", "k") {
		t.Error("HashKey ignores version")
	}
	if len(HashKey("v", "k")) != 64 {
		t.Error("HashKey is not a sha256 hex digest")
	}
}

// TestResourceAccounting: executed jobs accumulate wall/CPU/alloc/GC
// totals and cache hits do not.
func TestResourceAccounting(t *testing.T) {
	reg := telemetry.NewRegistry()
	cache, err := OpenCache(t.TempDir(), "v-test")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 4)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Key:   fmt.Sprintf("res-job|%d", i),
			Label: fmt.Sprintf("res%d", i),
			Fn: func(ctx context.Context) (any, error) {
				buf := make([]byte, 1<<20) // force measurable allocation
				for j := range buf {
					buf[j] = byte(i + j)
				}
				return int(buf[len(buf)-1]), nil
			},
		}
	}
	e := New(Options{Workers: 2, Cache: cache, Metrics: reg})
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	rs := e.Resources()
	if rs.Jobs != 4 || rs.Executed != 4 || rs.CacheHits != 0 {
		t.Errorf("resources counts = %+v", rs)
	}
	if rs.AllocBytes < 4<<20 {
		t.Errorf("alloc bytes = %d, want >= 4MiB", rs.AllocBytes)
	}
	if rs.Mallocs == 0 {
		t.Errorf("mallocs = 0, want > 0")
	}
	if rs.MaxJobLabel == "" || rs.MaxJobWallMS < 0 {
		t.Errorf("max job = %q/%d", rs.MaxJobLabel, rs.MaxJobWallMS)
	}
	if got := reg.Counter(telemetry.MetricEngineJobAllocBytes, "").Value(); got != float64(rs.AllocBytes) {
		t.Errorf("alloc metric = %v, want %v", got, rs.AllocBytes)
	}

	// A warm re-run adds cache hits but no resource totals.
	if _, err := e.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	warm := e.Resources()
	if warm.Jobs != 8 || warm.CacheHits != 4 {
		t.Errorf("warm counts = %+v", warm)
	}
	if warm.AllocBytes != rs.AllocBytes || warm.JobCPUMS != rs.JobCPUMS {
		t.Errorf("cache hits accrued resources: cold %+v warm %+v", rs, warm)
	}
}

// readCountingFS counts the reads that reach the filesystem.
type readCountingFS struct {
	FS
	reads atomic.Int64
}

func (f *readCountingFS) ReadFile(path string) ([]byte, error) {
	f.reads.Add(1)
	return f.FS.ReadFile(path)
}

// prefilled returns a cache directory holding jobs' results, written by
// an engine over a Cache of its own, so nothing of that run is in the
// memo of the caches a test then opens over the directory.
func prefilled(t *testing.T, jobs []Job) string {
	t.Helper()
	dir := t.TempDir()
	c, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Workers: 2, Cache: c}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	return dir
}

// countingCache opens a cache over dir whose filesystem reads are counted.
func countingCache(t *testing.T, dir string) (*Cache, *readCountingFS) {
	t.Helper()
	fsys := &readCountingFS{FS: OS()}
	c, err := OpenCacheFS(dir, "v-test", fsys)
	if err != nil {
		t.Fatal(err)
	}
	return c, fsys
}

// An engine with a cache reads each distinct hash once in its lifetime:
// jobs 0-3 are prefilled, 4-5 execute in the first Run, and the second
// Run serves all six from memory. Every count and event is the one a
// second cache read produced. The subtest is named for the engine that
// could also resume from a journal; a fresh engine over the cache is
// now the only case.
func TestEngineReadsEachHashOnce(t *testing.T) {
	t.Run("resume=false", testEngineReadsEachHashOnce)
}

func testEngineReadsEachHashOnce(t *testing.T) {
	ctx := context.Background()
	var execs atomic.Int64
	jobs := testJobs(6, &execs)
	cache, fsys := countingCache(t, prefilled(t, jobs[:4]))
	reg := telemetry.NewRegistry()
	bus := events.New(0)
	e := New(Options{Workers: 3, Cache: cache, Metrics: reg, Events: bus})
	r1, err := e.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	if got := fsys.reads.Load(); got != 6 {
		t.Errorf("cache reads = %d, want 6 (one per distinct hash)", got)
	}
	if got := execs.Load(); got != 6 {
		t.Errorf("executions = %d, want 6 (4 prefill + 2)", got)
	}
	if r1.Executed != 2 || r1.CacheHits != 4 || r2.Executed != 0 || r2.CacheHits != 6 {
		t.Errorf("reports: first %d executed %d hits, second %d/%d; want 2/4, 0/6",
			r1.Executed, r1.CacheHits, r2.Executed, r2.CacheHits)
	}
	st := e.Status()
	if st.Jobs != 12 || st.Executed != 2 || st.CacheHits != 10 {
		t.Errorf("status = %+v", st)
	}
	if got := reg.Counter(telemetry.MetricEngineCacheMiss, "").Value(); got != 2 {
		t.Errorf("misses counter = %v, want 2", got)
	}
	if got := reg.Counter(telemetry.MetricEngineCacheHits, "").Value(); got != 10 {
		t.Errorf("hits counter = %v, want 10", got)
	}
	count := map[events.Type]int{}
	all, _ := bus.Since(0, nil)
	for _, ev := range all {
		count[ev.Type]++
	}
	if count[events.JobCacheHit] != 10 || count[events.JobFinished] != 2 {
		t.Errorf("event counts = %v, want 10 cache hits and 2 finished", count)
	}
	for i := range jobs {
		if string(r1.Payloads[i]) != string(r2.Payloads[i]) {
			t.Errorf("payload %d: %s then %s", i, r1.Payloads[i], r2.Payloads[i])
		}
	}
}

// An engine without a cache executes a repeated key on every Run.
func TestUncachedEngineExecutesRepeats(t *testing.T) {
	var execs atomic.Int64
	jobs := testJobs(3, &execs)
	e := New(Options{Workers: 2})
	for i := 0; i < 2; i++ {
		rep, err := e.Run(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Executed != 3 || rep.CacheHits != 0 {
			t.Errorf("run %d: executed %d hits %d, want 3/0", i, rep.Executed, rep.CacheHits)
		}
	}
	if got := execs.Load(); got != 6 {
		t.Errorf("executions = %d, want 6", got)
	}
}

// countedValue decodes a testJobs payload and counts every decode by the
// job index it holds, in decodes.
type countedValue struct {
	Index  int `json:"index"`
	Square int `json:"square"`
}

var decodes struct {
	sync.Mutex
	n map[int]int
}

func (v *countedValue) UnmarshalJSON(b []byte) error {
	type plain countedValue
	if err := json.Unmarshal(b, (*plain)(v)); err != nil {
		return err
	}
	decodes.Lock()
	decodes.n[v.Index]++
	decodes.Unlock()
	return nil
}

// decodeCounts returns the decodes counted since the last call.
func decodeCounts() map[int]int {
	decodes.Lock()
	defer decodes.Unlock()
	n := decodes.n
	decodes.n = map[int]int{}
	return n
}

// checkValues fails unless vals are the testJobs results of keys idx.
func checkValues(t *testing.T, what string, idx []int, vals []countedValue) {
	t.Helper()
	for i, k := range idx {
		if want := (countedValue{k, k * k}); vals[i] != want {
			t.Errorf("%s: job %d (key %d) = %+v, want %+v", what, i, k, vals[i], want)
		}
	}
}

// pick returns all's jobs at idx, in that order.
func pick(all []Job, idx []int) []Job {
	jobs := make([]Job, len(idx))
	for i, k := range idx {
		jobs[i] = all[k]
	}
	return jobs
}

// decodeEachKeyOnce runs three batches that repeat keys at once, each
// on an engine from eng, so workers write memo entries while the other
// batches decode them. Each of all's nine keys must be decoded exactly
// once and every job get its own key's value. A fourth batch over every
// key, on one more engine from eng, must read no cache object and
// decode nothing.
func decodeEachKeyOnce(t *testing.T, all []Job, fsys *readCountingFS, eng func() *Engine) {
	t.Helper()
	ctx := context.Background()
	batches := [][]int{{0, 1, 2, 3, 4, 5, 0}, {3, 4, 5, 6, 7, 8, 3}, {8, 7, 6, 2, 1, 0, 8, 8}}
	vals := make([][]countedValue, len(batches))
	decodeCounts()
	var wg sync.WaitGroup
	for i, idx := range batches {
		e := eng()
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := RunDecoded[countedValue](ctx, e, pick(all, idx))
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = v
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, idx := range batches {
		checkValues(t, fmt.Sprintf("batch %d", i), idx, vals[i])
	}
	n := decodeCounts()
	for k := range all {
		if n[k] != 1 {
			t.Errorf("key %d decoded %d times, want 1 (all counts: %v)", k, n[k], n)
		}
	}

	reads := fsys.reads.Load()
	every := []int{8, 7, 6, 5, 4, 3, 2, 1, 0}
	v, err := RunDecoded[countedValue](ctx, eng(), pick(all, every))
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, "memo batch", every, v)
	if got := fsys.reads.Load(); got != reads {
		t.Errorf("memo hits read %d cache objects, want 0", got-reads)
	}
	if n := decodeCounts(); len(n) != 0 {
		t.Errorf("memo hits decoded %v, want nothing", n)
	}
}

// RunDecoded decodes each key once per engine lifetime. Three batches
// that repeat keys run at once on a cached engine with four workers, so
// workers write memo entries while the other batches decode them; jobs
// 0-3 come from the cache, 4-8 execute. Each of the nine keys is decoded
// exactly once and every job gets its own key's value. A fourth batch
// over known keys reads no cache object and decodes nothing. An
// uncached engine decodes every job.
func TestRunDecodedDecodesEachKeyOnce(t *testing.T) {
	ctx := context.Background()
	var execs atomic.Int64
	all := testJobs(9, &execs)
	cache, fsys := countingCache(t, prefilled(t, all[:4]))
	e := New(Options{Workers: 4, Cache: cache})
	decodeEachKeyOnce(t, all, fsys, func() *Engine { return e })

	u := New(Options{Workers: 4})
	repeats := []int{0, 0, 1, 1, 2}
	for run := 0; run < 2; run++ {
		v, err := RunDecoded[countedValue](ctx, u, pick(all, repeats))
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, "uncached", repeats, v)
	}
	if n := decodeCounts(); n[0] != 4 || n[1] != 4 || n[2] != 2 {
		t.Errorf("uncached engine decoded %v, want every job: map[0:4 1:4 2:2]", n)
	}
}
