package faultfs_test

// The end-to-end chaos tests: the engine driven over a faulting
// filesystem must keep its determinism contract — exit 0, correct
// payloads — while the robustness counters record what it survived.
// CI runs this package under -race (the `chaos` job).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/engine/faultfs"
)

func chaosJobs(n int, execs *atomic.Int64, panicOnce *atomic.Bool) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = engine.Job{
			Key:   fmt.Sprintf("chaos-job|%d", i),
			Label: fmt.Sprintf("chaos%d", i),
			Fn: func(ctx context.Context) (any, error) {
				// One job kills its worker mid-flight, exactly once across
				// the whole test: the pool must isolate and retry it.
				if i == n/2 && panicOnce != nil && panicOnce.CompareAndSwap(false, true) {
					panic("worker killed mid-job")
				}
				execs.Add(1)
				return map[string]int{"index": i, "cube": i * i * i}, nil
			},
		}
	}
	return jobs
}

func checkPayloads(t *testing.T, rep *engine.Report) {
	t.Helper()
	for i, p := range rep.Payloads {
		m, err := engine.Decode[map[string]int](p)
		if err != nil {
			t.Fatal(err)
		}
		if m["index"] != i || m["cube"] != i*i*i {
			t.Errorf("payload %d = %v", i, m)
		}
	}
}

// TestChaosSweep: tear cache writes, kill one worker mid-job, then
// corrupt >=10% of the cache objects and rerun the sweep over them —
// both sweeps must complete with a nil error, byte-correct payloads,
// and nonzero corruption/retry counters.
func TestChaosSweep(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	// Tear every 7th write: the torn temp file is never renamed, so the
	// job's object is simply missing and the rerun recomputes it.
	ffs := faultfs.New(nil, faultfs.Options{TornWriteEveryNth: 7})
	cache, err := engine.OpenCacheFS(dir, "v-chaos", ffs)
	if err != nil {
		t.Fatal(err)
	}

	var execs atomic.Int64
	var panicked atomic.Bool
	jobs := chaosJobs(n, &execs, &panicked)
	e1 := engine.New(engine.Options{
		Workers: 4, Cache: cache, Retries: 2,
		RetryBackoff: time.Millisecond, JobTimeout: 10 * time.Second,
	})
	rep, err := e1.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("chaos sweep failed: %v", err)
	}
	checkPayloads(t, rep)
	if !panicked.Load() {
		t.Fatal("the mid-job panic never fired")
	}
	if s := e1.Status(); s.Retries == 0 {
		t.Errorf("status = %+v: the killed worker's job was not retried", s)
	}

	// Corrupt >=10% of the surviving cache objects on disk.
	var objects []string
	filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			objects = append(objects, path)
		}
		return nil
	})
	if len(objects) < n/2 {
		t.Fatalf("only %d objects cached, torn writes ate too many", len(objects))
	}
	corrupted := 0
	for i, path := range objects {
		if i%5 == 0 { // 20% of objects
			if err := os.WriteFile(path, []byte("{}garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted++
		}
	}
	if corrupted*10 < len(objects) {
		t.Fatalf("corrupted %d of %d objects, need >=10%%", corrupted, len(objects))
	}

	// Rerun over the damaged cache with a fresh engine, still on the
	// torn FS.
	cache2, err := engine.OpenCacheFS(dir, "v-chaos", ffs)
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Options{
		Workers: 4, Cache: cache2, Retries: 2,
		RetryBackoff: time.Millisecond,
	})
	jobs2 := chaosJobs(n, &execs, nil)
	rep2, err := e2.Run(context.Background(), jobs2)
	if err != nil {
		t.Fatalf("rerun over the damaged cache failed: %v", err)
	}
	checkPayloads(t, rep2)
	s := e2.Status()
	if s.Corrupt == 0 {
		t.Error("no corruption detected despite 20% of objects damaged")
	}
	if int(s.Corrupt) != corrupted {
		t.Errorf("corrupt counter = %d, want %d", s.Corrupt, corrupted)
	}
	if rep2.Executed == 0 || rep2.CacheHits == 0 {
		t.Errorf("rerun split executed/hits = %d/%d: want both nonzero", rep2.Executed, rep2.CacheHits)
	}
	if c := ffs.Counts(); c.Torn == 0 {
		t.Errorf("faultfs counts = %+v: no torn writes fired", c)
	}
	if cache2.CorruptCount() != uint64(corrupted) {
		t.Errorf("cache quarantined %d, want %d", cache2.CorruptCount(), corrupted)
	}
}

// TestReadErrorsAreMisses proves injected EIO on cache reads degrades
// to recomputation, never to failure.
func TestReadErrorsAreMisses(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, faultfs.Options{FailReadEveryNth: 3})
	cache, err := engine.OpenCacheFS(dir, "v-eio", ffs)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	jobs := chaosJobs(12, &execs, nil)
	if _, err := engine.New(engine.Options{Workers: 2, Cache: cache}).
		Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	cache2, _ := engine.OpenCacheFS(dir, "v-eio", ffs)
	e := engine.New(engine.Options{Workers: 2, Cache: cache2})
	rep, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("EIO on reads must not fail the sweep: %v", err)
	}
	checkPayloads(t, rep)
	if rep.Executed == 0 {
		t.Error("every read supposedly hit despite injected EIO")
	}
	if c := ffs.Counts(); c.EIO == 0 {
		t.Errorf("faultfs counts = %+v: no EIO fired", c)
	}
}

// TestBitRotOnReadIsQuarantineFree proves in-flight corruption (the
// disk returns different bytes than were written) is detected by the
// checksum even though the on-disk object is fine.
func TestBitRotOnRead(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, faultfs.Options{CorruptReadEveryNth: 4})
	cache, err := engine.OpenCacheFS(dir, "v-rot", ffs)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	jobs := chaosJobs(12, &execs, nil)
	if _, err := engine.New(engine.Options{Workers: 2, Cache: cache}).
		Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	cache2, _ := engine.OpenCacheFS(dir, "v-rot", ffs)
	e := engine.New(engine.Options{Workers: 2, Cache: cache2})
	rep, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("bit rot on reads must not fail the sweep: %v", err)
	}
	checkPayloads(t, rep)
	if e.Status().Corrupt == 0 {
		t.Error("checksum never caught the flipped bytes")
	}
}

// TestReadOnlyFilesystemDegrades covers the two unwritable-store
// shapes: a cache dir that cannot even be created (open fails — the
// signal cliutil turns into cache-less operation), and a store whose
// every write fails after opening (full disk, permissions flipped
// mid-run) — the sweep still completes with exit 0.
func TestReadOnlyFilesystemDegrades(t *testing.T) {
	dir := t.TempDir()
	ro := faultfs.New(nil, faultfs.Options{ReadOnly: true})
	if _, err := engine.OpenCacheFS(dir, "v-ro", ro); err == nil {
		t.Fatal("OpenCacheFS over a read-only FS must fail (cliutil's degrade signal)")
	}

	broken := faultfs.New(nil, faultfs.Options{TornWriteEveryNth: 1, FailRenameEveryNth: 1})
	cache, err := engine.OpenCacheFS(dir, "v-ro", broken)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	jobs := chaosJobs(8, &execs, nil)
	rep, err := engine.New(engine.Options{Workers: 2, Cache: cache}).
		Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("unwritable store must degrade, not fail: %v", err)
	}
	checkPayloads(t, rep)
	if rep.Executed != 8 {
		t.Errorf("executed %d, want 8 (nothing cacheable)", rep.Executed)
	}
}
