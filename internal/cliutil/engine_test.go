package cliutil

import (
	"context"
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
	ef := parse(t, "-cache-dir", dir, "-retry-backoff", "1ms", "-job-timeout", "5s", "-job-retries", "3")
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
