package cliutil

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"racetrack/hifi/internal/engine"
)

// parse registers the engine flags on a private flag set and parses
// args, returning the flag struct Build consumes.
func parse(t *testing.T, args ...string) *EngineFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	ef := AddEngineFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return ef
}

func TestBuildDegradesWhenCacheDirUnusable(t *testing.T) {
	// A regular file where the cache directory should be: MkdirAll can
	// never succeed, so Build must warn and hand back an engine over an
	// in-memory cache rather than failing the run.
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ef := parse(t, "-cache-dir", blocker, "-jobs", "2")
	eng, err := ef.Build(nil)
	if err != nil {
		t.Fatalf("unusable cache dir must degrade, not error: %v", err)
	}
	if eng == nil {
		t.Fatal("no engine returned")
	}
	ef.Finish(eng)
}

// Without a usable -cache-dir the engine still has a cache, in memory:
// a result it resolved once is not computed again in the same run.
func TestBuildKeepsCacheInMemory(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{nil, {"-cache-dir", blocker}} {
		ef := parse(t, args...)
		eng, err := ef.Build(nil)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var execs atomic.Int64
		job := engine.Job{Key: "memo-job", Fn: func(context.Context) (any, error) {
			execs.Add(1)
			return 42, nil
		}}
		for i := 0; i < 2; i++ {
			if _, err := eng.Run(context.Background(), []engine.Job{job}); err != nil {
				t.Fatal(err)
			}
		}
		if st := eng.Status(); execs.Load() != 1 || st.Executed != 1 || st.CacheHits != 1 {
			t.Errorf("%v: %d executions, status %+v; want 1 executed, 1 cache hit", args, execs.Load(), st)
		}
		ef.Finish(eng)
	}
}

// The cache directory is a sweep's only record: Build and Finish leave
// nothing in it but the object store.
func TestBuildWiresRobustnessOptions(t *testing.T) {
	dir := t.TempDir()
	ef := parse(t, "-cache-dir", dir, "-cache-max-bytes", "1048576")
	eng, err := ef.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		t.Fatal("no engine returned")
	}
	ef.Finish(eng)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "objects" || !entries[0].IsDir() {
		t.Errorf("cache dir holds %q, want only objects/", names)
	}
}

// Under the CLI defaults a job runs once: one that returns an error and
// one that panics each fail their batch after a single call.
func TestDefaultEngineRunsFailingJobsOnce(t *testing.T) {
	eng, err := parse(t).Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, fail := range map[string]func() (any, error){
		"error": func() (any, error) { return nil, errors.New("deterministic failure") },
		"panic": func() (any, error) { panic("deterministic failure") },
	} {
		var calls atomic.Int64
		job := engine.Job{Key: "failing-" + name, Fn: func(context.Context) (any, error) {
			calls.Add(1)
			return fail()
		}}
		if _, err := eng.Run(context.Background(), []engine.Job{job}); err == nil {
			t.Errorf("%s: the failing job's batch returned no error", name)
		}
		if n := calls.Load(); n != 1 {
			t.Errorf("%s: the failing job ran %d times, want 1", name, n)
		}
	}
	if st := eng.Status(); st.Failures != 2 || st.Executed != 0 {
		t.Errorf("status %+v, want 2 failures and nothing executed", st)
	}
}
