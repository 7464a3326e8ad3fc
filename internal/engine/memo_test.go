package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
)

// A second engine over a Cache another engine read back from reads no
// object and decodes nothing: it adopts the first engine's entries,
// decoded values included. Its report, status, metrics and events are
// the ones the first engine's reads produced.
func TestSecondEngineAdoptsWhatTheCacheReadBack(t *testing.T) {
	ctx := context.Background()
	var execs atomic.Int64
	jobs := testJobs(6, &execs)
	idx := []int{0, 1, 2, 3, 4, 5}
	cache, fsys := countingCache(t, prefilled(t, jobs))
	execs.Store(0)

	type side struct {
		rep    *Report
		status Status
		snap   telemetry.Snapshot
		events []string
		reads  int64
		decode map[int]int
	}
	run := func() side {
		reg := telemetry.NewRegistry()
		bus := events.New(0)
		e := New(Options{Workers: 1, Cache: cache, Metrics: reg, Events: bus})
		reads := fsys.reads.Load()
		decodeCounts()
		rep, err := e.Run(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := RunDecoded[countedValue](ctx, e, jobs)
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, "decoded", idx, vals)
		var evs []string
		all, _ := bus.Since(0, nil)
		for _, ev := range all {
			evs = append(evs, ev.Canonical())
		}
		return side{rep, e.Status(), reg.Snapshot(), evs, fsys.reads.Load() - reads, decodeCounts()}
	}
	first, second := run(), run()

	if first.reads != 6 || !reflect.DeepEqual(first.decode, map[int]int{0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}) {
		t.Errorf("first engine read %d objects and decoded %v, want 6 reads and each key once", first.reads, first.decode)
	}
	if second.reads != 0 || len(second.decode) != 0 {
		t.Errorf("second engine read %d objects and decoded %v, want nothing", second.reads, second.decode)
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("%d executions, want 0", n)
	}
	if first.rep.Executed != 0 || first.rep.CacheHits != 6 ||
		second.rep.Executed != 0 || second.rep.CacheHits != first.rep.CacheHits {
		t.Errorf("reports: first %d executed %d hits, second %d/%d; want 0/6 both",
			first.rep.Executed, first.rep.CacheHits, second.rep.Executed, second.rep.CacheHits)
	}
	for i := range jobs {
		if string(first.rep.Payloads[i]) != string(second.rep.Payloads[i]) {
			t.Errorf("payload %d: %s then %s", i, first.rep.Payloads[i], second.rep.Payloads[i])
		}
	}
	if !reflect.DeepEqual(first.status, second.status) {
		t.Errorf("status: first %+v, second %+v", first.status, second.status)
	}
	if !reflect.DeepEqual(first.snap, second.snap) {
		t.Errorf("metrics: first %+v, second %+v", first.snap, second.snap)
	}
	if !reflect.DeepEqual(first.events, second.events) {
		t.Errorf("events:\nfirst  %v\nsecond %v", first.events, second.events)
	}
	hits := 0
	for _, ev := range second.events {
		if ev == (events.Event{Type: events.JobCacheHit, Name: "job0"}).Canonical() {
			hits++
		}
	}
	if hits != 2 {
		t.Errorf("job0 cache hits = %d, want 2 (one a batch)", hits)
	}
}

// Executed results stay with the engine that executed them: the next
// engine over the Cache reads each back once, and the one after it
// reads nothing.
func TestExecutedResultsAreNotShared(t *testing.T) {
	ctx := context.Background()
	var execs atomic.Int64
	jobs := testJobs(5, &execs)
	idx := []int{0, 1, 2, 3, 4}
	cache, fsys := countingCache(t, t.TempDir())
	for i, want := range []struct {
		executed int
		reads    int64
	}{{5, 5}, {0, 5}, {0, 0}} {
		reads := fsys.reads.Load()
		decodeCounts()
		e := New(Options{Workers: 2, Cache: cache})
		vals, err := RunDecoded[countedValue](ctx, e, jobs)
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, fmt.Sprintf("engine %d", i), idx, vals)
		st := e.Status()
		got := fsys.reads.Load() - reads
		if int(st.Executed) != want.executed || int(st.CacheHits) != 5-want.executed || got != want.reads {
			t.Errorf("engine %d: %d executed, %d hits, %d reads; want %d executed, %d reads",
				i, st.Executed, st.CacheHits, got, want.executed, want.reads)
		}
		if n := decodeCounts(); want.reads == 0 && len(n) != 0 {
			t.Errorf("engine %d decoded %v, want nothing", i, n)
		}
	}
	if n := execs.Load(); n != 5 {
		t.Errorf("%d executions, want 5", n)
	}
}

// The shared memo never holds more key and payload bytes than its
// budget: an insertion that would pass it empties the memo first, and
// a result larger than the whole budget is not kept. Every job still
// resolves, as a cache hit, to its own result.
func TestSharedMemoStaysWithinItsBudget(t *testing.T) {
	ctx := context.Background()
	var execs atomic.Int64
	jobs := testJobs(12, &execs)
	dir := prefilled(t, jobs)
	cache, fsys := countingCache(t, dir)
	execs.Store(0)
	// A testJobs key and payload take 30 to 40 bytes: room for about
	// three results.
	cache.memoBudget = 100
	held := func() int {
		cache.memoMu.Lock()
		defer cache.memoMu.Unlock()
		n := 0
		for k, m := range cache.memo {
			n += len(k) + len(m.payload)
		}
		if n != cache.memoBytes {
			t.Errorf("memo holds %d bytes, counted %d", n, cache.memoBytes)
		}
		return n
	}
	batches := [][]int{{0, 1, 2}, {3, 4, 5, 6, 7}, {0, 1, 2}, {8, 9, 10, 11, 0, 5}, {11, 10}}
	for i, idx := range batches {
		e := New(Options{Workers: 1, Cache: cache})
		vals, err := RunDecoded[countedValue](ctx, e, pick(jobs, idx))
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, fmt.Sprintf("batch %d", i), idx, vals)
		if st := e.Status(); st.Executed != 0 || int(st.CacheHits) != len(idx) {
			t.Errorf("batch %d: status %+v, want every job a cache hit", i, st)
		}
		if n := held(); n > cache.memoBudget {
			t.Errorf("batch %d: memo holds %d bytes, past its budget of %d", i, n, cache.memoBudget)
		}
	}
	if n := execs.Load(); n != 0 {
		t.Errorf("%d executions, want 0", n)
	}

	// What the memo kept serves a repeat without a read.
	var kept []int
	cache.memoMu.Lock()
	for i, j := range jobs {
		if cache.memo[j.Key] != nil {
			kept = append(kept, i)
		}
	}
	cache.memoMu.Unlock()
	if len(kept) == 0 {
		t.Fatal("the memo kept nothing")
	}
	reads := fsys.reads.Load()
	if _, err := New(Options{Cache: cache}).Run(ctx, pick(jobs, kept)); err != nil {
		t.Fatal(err)
	}
	if got := fsys.reads.Load() - reads; got != 0 {
		t.Errorf("a repeat of the kept keys %v read %d objects, want 0", kept, got)
	}

	// A result larger than the whole budget is never kept: every engine
	// reads it again.
	small, sfs := countingCache(t, dir)
	small.memoBudget = 10
	for i := 0; i < 2; i++ {
		vals, err := RunDecoded[countedValue](ctx, New(Options{Cache: small}), pick(jobs, []int{3}))
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, "oversized", []int{3}, vals)
	}
	if got := sfs.reads.Load(); got != 2 || len(small.memo) != 0 || small.memoBytes != 0 {
		t.Errorf("a result past the budget: %d reads, memo %d entries and %d bytes; want 2 reads and an empty memo",
			got, len(small.memo), small.memoBytes)
	}
}

// Engines side by side over one Cache decode each key once between
// them: three engines with four workers each run overlapping batches at
// once over a prefilled cache, so one engine's workers store shared
// entries while the others' adopt and decode them. A fourth engine
// afterwards reads and decodes nothing, and nothing executes.
func TestEnginesOverOneCacheDecodeEachKeyOnce(t *testing.T) {
	var execs atomic.Int64
	all := testJobs(9, &execs)
	cache, fsys := countingCache(t, prefilled(t, all))
	execs.Store(0)
	decodeEachKeyOnce(t, all, fsys, func() *Engine { return New(Options{Workers: 4, Cache: cache}) })
	if n := execs.Load(); n != 0 {
		t.Errorf("%d executions, want 0", n)
	}
}
