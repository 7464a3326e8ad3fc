package engine

// Robustness tests: checksum verification and quarantine on cache
// reads, skip-and-log for corrupt log records, per-job timeouts, and
// retry backoff. The end-to-end chaos sweep (filesystem faults via
// engine/faultfs) lives in faultfs's own tests to keep the import
// graph acyclic.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"racetrack/hifi/internal/telemetry/log"
)

func TestCacheGetVerifiesChecksum(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	hash := HashKey("v-test", "some-job")
	payload := []byte(`{"value":42}`)
	if err := c.Put(hash, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(hash)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}

	// Flip one payload byte on disk: Get must refuse and quarantine.
	path := c.path(hash)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(hash); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted object: err = %v, want ErrCorrupt", err)
	}
	if c.CorruptCount() != 1 {
		t.Errorf("corrupt count = %d, want 1", c.CorruptCount())
	}
	if _, err := os.Stat(filepath.Join(c.QuarantineDir(), hash+".json")); err != nil {
		t.Errorf("corrupt object not quarantined: %v", err)
	}
	// The address is free again: the next read is a plain miss.
	if _, err := c.Get(hash); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("post-quarantine read: err = %v, want fs.ErrNotExist", err)
	}
}

// A schema-1 object (raw JSON, no checksum header) used to decode into
// a zero result; under the checksum framing it is corrupt by
// construction, never silently zero.
func TestCacheGetRejectsHeaderlessObject(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	hash := HashKey("v-test", "legacy-job")
	path := c.path(hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	// Perfectly valid JSON — the failure mode is framing, not syntax.
	if err := os.WriteFile(path, []byte(`{"value":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(hash); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("headerless object: err = %v, want ErrCorrupt", err)
	}
	// Truncated mid-header is corrupt too, not a decode-to-zero.
	if err := os.WriteFile(path, []byte(objectMagic+"abcd"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(hash); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated object: err = %v, want ErrCorrupt", err)
	}
}

func TestEngineRecomputesCorruptObject(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	jobs := testJobs(6, &execs)
	if _, err := New(Options{Workers: 2, Cache: cache}).Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}

	// Damage one object behind the cache's back.
	victim := cache.path(HashKey("v-test", jobs[3].Key))
	if err := os.WriteFile(victim, []byte("rotten"), 0o644); err != nil {
		t.Fatal(err)
	}

	cache2, _ := OpenCache(dir, "v-test")
	e := New(Options{Workers: 2, Cache: cache2})
	rep, err := e.Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("corruption must not fail the sweep: %v", err)
	}
	if rep.Executed != 1 || rep.CacheHits != 5 {
		t.Errorf("executed %d hits %d, want 1/5 (only the damaged job recomputes)", rep.Executed, rep.CacheHits)
	}
	if s := e.Status(); s.Corrupt != 1 {
		t.Errorf("status corrupt = %d, want 1", s.Corrupt)
	}
	out := make([]map[string]int, len(rep.Payloads))
	for i, p := range rep.Payloads {
		if out[i], err = Decode[map[string]int](p); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
	}
	if out[3]["square"] != 9 {
		t.Errorf("recomputed payload = %v", out[3])
	}
}

// damagedLog holds two intact records around two damaged middle
// records, then a torn tail.
const damagedLog = `{"seq":1,"key":"k1","hash":"aaa","attempts":1,"dur_ms":1}
{"seq":2,"key":"k2","ha
not json at all
{"seq":4,"key":"k4","hash":"ddd","attempts":1,"dur_ms":1}
{"seq":9,"key":"torn`

func TestReplayLinesSkipsCorruptMiddleRecord(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	prev := log.GetLevel()
	log.SetLevel(log.Info)
	defer log.SetLevel(prev)

	var applied []string
	skipped := ReplayLines("damaged", []byte(damagedLog), func(line []byte) error {
		var r struct{ Hash string }
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		applied = append(applied, r.Hash)
		return nil
	})
	if want := []string{"aaa", "ddd"}; !slices.Equal(applied, want) {
		t.Errorf("applied %q, want %q in order", applied, want)
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2 (the torn tail is not corruption)", skipped)
	}
	if out := logged.String(); strings.Count(out, "skipping corrupt record") != 2 || strings.Contains(out, "line 5") {
		t.Errorf("log = %q, want reports for lines 2 and 3 only", out)
	}
}

// FuzzReplayLines checks ReplayLines against a line-by-line model of its
// rule: no input panics it, every newline-terminated line apply accepts
// is delivered once and in order, and the skip count is exactly the
// number of terminated lines apply rejects (a rejected unterminated
// tail is torn, not corrupt). The seeds are the damaged logs of
// TestReplayLinesSkipsCorruptMiddleRecord and serve's
// TestIndexReplayTornTailAndGarbage.
func FuzzReplayLines(f *testing.F) {
	f.Add([]byte(damagedLog))
	f.Add([]byte(`{"schema":"hifi_serve_index_v1"}
{"op":"admitted","id":"j0001","fingerprint":"f1","spec":{"run":["fig14"],"scaled":true,"accesses":300},"t_ms":100}
{"op":"started","id":"j0001","t_ms":110}
{"op":"done","id":"j0001","t_ms":200}
this line is not JSON at all
{"op":"admitted","id":"j0002","fingerprint":"f2","spec":{"run":["fig14"],"scaled":true,"accesses":300},"t_ms":300}
{"op":"started","id":"j0002","t_m`))
	prev := log.GetLevel()
	log.SetLevel(log.Quiet) // every rejected line would log
	f.Cleanup(func() { log.SetLevel(prev) })
	f.Fuzz(func(t *testing.T, content []byte) {
		accept := func(line []byte) bool { return json.Valid(line) }
		var got []string
		skipped := ReplayLines("fuzz", content, func(line []byte) error {
			if !accept(line) {
				return errors.New("rejected")
			}
			got = append(got, string(line))
			return nil
		})

		var want []string
		wantSkipped := 0
		rest := content
		for {
			i := bytes.IndexByte(rest, '\n')
			if i < 0 {
				break
			}
			line := rest[:i]
			rest = rest[i+1:]
			switch {
			case len(line) == 0:
			case accept(line):
				want = append(want, string(line))
			default:
				wantSkipped++
			}
		}
		if len(rest) > 0 && accept(rest) {
			want = append(want, string(rest))
		}
		if skipped != wantSkipped {
			t.Fatalf("skipped %d, want %d", skipped, wantSkipped)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("delivered %q, want %q", got, want)
		}
	})
}

func TestJobTimeoutAbandonsHungAttempt(t *testing.T) {
	var attempts atomic.Int64
	hang := Job{
		Key:   "hang-once",
		Label: "hang-once",
		Fn: func(ctx context.Context) (any, error) {
			if attempts.Add(1) == 1 {
				<-ctx.Done() // hung until the per-job deadline fires
				return nil, context.Cause(ctx)
			}
			return "recovered", nil
		},
	}
	e := New(Options{Workers: 1, Retries: 1, JobTimeout: 30 * time.Millisecond})
	rep, err := e.Run(context.Background(), []Job{hang})
	if err != nil {
		t.Fatalf("timeout + retry should recover: %v", err)
	}
	if rep.Retried != 1 {
		t.Errorf("retried = %d, want 1", rep.Retried)
	}
	if s := e.Status(); s.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", s.Timeouts)
	}
	v, err := Decode[string](rep.Payloads[0])
	if err != nil || v != "recovered" {
		t.Errorf("payload = %q, %v", v, err)
	}

	// A job that always hangs exhausts retries with a timeout error.
	stuck := Job{
		Key: "always-hung",
		Fn: func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, context.Cause(ctx)
		},
	}
	_, err = New(Options{Workers: 1, Retries: 1, JobTimeout: 10 * time.Millisecond}).
		Run(context.Background(), []Job{stuck})
	if !errors.Is(err, errAttemptTimeout) {
		t.Errorf("permanently hung job: err = %v, want attempt-timeout cause", err)
	}
}

func TestRetryBackoffDelaysAndCancels(t *testing.T) {
	var attempts atomic.Int64
	flaky := Job{
		Key: "flaky-timed",
		Fn: func(ctx context.Context) (any, error) {
			if attempts.Add(1) <= 2 {
				return nil, fmt.Errorf("transient")
			}
			return "ok", nil
		},
	}
	start := time.Now()
	_, err := New(Options{Workers: 1, Retries: 2, RetryBackoff: 20 * time.Millisecond}).
		Run(context.Background(), []Job{flaky})
	if err != nil {
		t.Fatal(err)
	}
	// Two backoffs: >= 20ms + 40ms before jitter.
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Errorf("elapsed %v, want >= 60ms of backoff", elapsed)
	}

	// Cancellation mid-backoff returns promptly instead of sleeping out.
	ctx, cancel := context.WithCancel(context.Background())
	always := Job{
		Key: "always-bad-timed",
		Fn: func(ctx context.Context) (any, error) {
			cancel() // fail and take the sweep down while backing off
			return nil, fmt.Errorf("boom")
		},
	}
	start = time.Now()
	_, err = New(Options{Workers: 1, Retries: 3, RetryBackoff: 10 * time.Second}).
		Run(ctx, []Job{always})
	if err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; backoff did not honour ctx", elapsed)
	}
}

func TestCachePutFailureWarnsOnceAndContinues(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	// Make the objects tree unwritable so every Put fails. (Root can
	// write anyway on some CI images; skip if the chmod has no effect.)
	objects := filepath.Join(dir, "objects")
	if err := os.Chmod(objects, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(objects, 0o755)
	if f, err := os.Create(filepath.Join(objects, "probe")); err == nil {
		f.Close()
		t.Skip("running with privileges that ignore directory permissions")
	}
	var execs atomic.Int64
	rep, err := New(Options{Workers: 2, Cache: cache}).Run(context.Background(), testJobs(4, &execs))
	if err != nil {
		t.Fatalf("unwritable cache must degrade, not fail: %v", err)
	}
	if rep.Executed != 4 {
		t.Errorf("executed %d, want 4", rep.Executed)
	}
}
