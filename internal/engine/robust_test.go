package engine

// Robustness tests: checksum verification and quarantine on cache
// reads, skip-and-log for corrupt log records, and cache writes that
// fail. The end-to-end chaos sweep (filesystem faults via
// engine/faultfs) lives in faultfs's own tests to keep the import
// graph acyclic.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"racetrack/hifi/internal/telemetry/log"
)

// damageRecord flips a payload byte of hash's first record in its
// bucket, leaving the header intact: bit rot the checksum must catch.
func damageRecord(t *testing.T, c *Cache, hash string) {
	t.Helper()
	path := c.bucket(hash)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte(recordMagic+hash+" "))
	if i < 0 {
		t.Fatalf("no record for %s in %s", hash[:12], path)
	}
	end := i + bytes.IndexByte(raw[i:], '\n')
	raw[end-2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCacheGetVerifiesChecksum(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	hash := HashKey("v-test", "some-job")
	if err := c.Put(hash, []byte("{\n}")); err == nil {
		t.Fatal("Put framed a payload holding a newline")
	}
	payload := []byte(`{"value":42}`)
	if err := c.Put(hash, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(hash)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}

	// Flip one payload byte on disk: Get must refuse and quarantine.
	damageRecord(t, c, hash)
	if _, err := c.Get(hash); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted object: err = %v, want ErrCorrupt", err)
	}
	if c.CorruptCount() != 1 {
		t.Errorf("corrupt count = %d, want 1", c.CorruptCount())
	}
	q, err := os.ReadFile(filepath.Join(c.QuarantineDir(), hash+".line"))
	if err != nil {
		t.Errorf("corrupt object not quarantined: %v", err)
	} else if !bytes.HasPrefix(q, []byte(recordMagic+hash+" ")) {
		t.Errorf("quarantined %q, want the damaged record", q)
	}
	// The recomputed record, appended after the damaged one, is served
	// from then on.
	if err := c.Put(hash, payload); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Get(hash); err != nil || string(got) != string(payload) {
		t.Errorf("read after the recomputed append: %q, %v", got, err)
	}
	if c.CorruptCount() != 1 {
		t.Errorf("corrupt count = %d after recovery, want 1", c.CorruptCount())
	}
}

// A schema-1 object (raw JSON, no checksum header) used to decode into
// a zero result; under the checksum framing it is never served. A line
// that names the hash without a checksum, or stops mid-header, is
// corrupt; a headerless line names no hash and is a plain miss.
func TestCacheGetRejectsHeaderlessObject(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "v-test")
	if err != nil {
		t.Fatal(err)
	}
	hash := HashKey("v-test", "legacy-job")
	path := c.bucket(hash)
	for _, tc := range []struct {
		name, bucket string
		want         error
	}{
		{"headerless", `{"value":0}` + "\n", fs.ErrNotExist},
		// Perfectly valid JSON — the failure mode is framing, not syntax.
		{"no checksum", recordMagic + hash + ` {"value":0}` + "\n", ErrCorrupt},
		// Truncated mid-header is corrupt too, not a decode-to-zero.
		{"truncated header", recordMagic + hash + " abcd\n", ErrCorrupt},
	} {
		if err := os.WriteFile(path, []byte(tc.bucket), 0o644); err != nil {
			t.Fatal(err)
		}
		if b, err := c.Get(hash); !errors.Is(err, tc.want) {
			t.Errorf("%s object: got %q, %v; want %v", tc.name, b, err, tc.want)
		}
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

	// Damage one record behind the cache's back.
	damageRecord(t, cache, HashKey("v-test", jobs[3].Key))

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

	// The recomputed record is served from then on.
	cache3, _ := OpenCache(dir, "v-test")
	e3 := New(Options{Workers: 2, Cache: cache3})
	rep3, err := e3.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Executed != 0 || rep3.CacheHits != 6 || e3.Status().Corrupt != 0 {
		t.Errorf("third pass: executed %d hits %d corrupt %d, want 0/6/0",
			rep3.Executed, rep3.CacheHits, e3.Status().Corrupt)
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

// modelGet is the bucket format's read rule written out line by line:
// the payload of the first complete line "hifi2 <h> <sum> <payload>"
// whose sum is the payload's SHA-256 and whose payload is JSON; else
// ErrCorrupt when a complete line starts "hifi2 <h> "; else
// fs.ErrNotExist.
func modelGet(bucket []byte, h string) ([]byte, error) {
	lines := strings.Split(string(bucket), "\n")
	named := false
	for _, line := range lines[:len(lines)-1] { // the last is unterminated
		rest, ok := strings.CutPrefix(line, recordMagic+h+" ")
		if !ok {
			continue
		}
		named = true
		sum, p, ok := strings.Cut(rest, " ")
		want := sha256.Sum256([]byte(p))
		if ok && sum == hex.EncodeToString(want[:]) && json.Valid([]byte(p)) {
			return []byte(p), nil
		}
	}
	if named {
		return nil, ErrCorrupt
	}
	return nil, fs.ErrNotExist
}

// FuzzCacheBucket writes arbitrary bytes as a bucket, appends one valid
// record with Put, and holds Get to modelGet for every hash it probes:
// the appended one, a foreign hash in the same bucket, and every hash a
// line of the bucket names. Get must not panic, must find the appended
// record, and must report a hash present only with the payload of a
// complete line whose checksum and JSON verify. The seeds are a torn
// tail, a damaged line followed by a valid copy, a headerless line and
// a foreign hash's record.
func FuzzCacheBucket(f *testing.F) {
	hash := HashKey("v-fuzz", "appended")
	foreign := hash[:2] + strings.Repeat("0", 62)
	record := func(h, p string) string {
		sum := sha256.Sum256([]byte(p))
		return recordMagic + h + " " + hex.EncodeToString(sum[:]) + " " + p
	}
	valid := record(hash, `{"v":2}`)
	f.Add([]byte("\n" + record(hash, `{"v":1}`)[:100]))
	f.Add([]byte("\n" + valid[:len(valid)-2] + "3}\n\n" + valid + "\n"))
	f.Add([]byte(`{"value":0}` + "\n"))
	f.Add([]byte("\n" + record(foreign, `{"v":3}`) + "\n"))
	prev := log.GetLevel()
	log.SetLevel(log.Quiet) // every damaged line would log
	f.Cleanup(func() { log.SetLevel(prev) })
	f.Fuzz(func(t *testing.T, content []byte) {
		c, err := OpenCacheFS("", "v-fuzz", MemFS())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.fsys.WriteFile(c.bucket(hash), content); err != nil {
			t.Fatal(err)
		}
		appended := []byte(`{"appended":true}`)
		if err := c.Put(hash, appended); err != nil {
			t.Fatal(err)
		}
		bucket, err := c.fsys.ReadFile(c.bucket(hash))
		if err != nil {
			t.Fatal(err)
		}
		probes := map[string]bool{hash: true, foreign: true}
		for _, line := range bytes.Split(bucket, []byte{'\n'}) {
			rest, ok := bytes.CutPrefix(line, []byte(recordMagic))
			if ok && len(rest) >= len(hash) && string(rest[:2]) == hash[:2] {
				probes[string(rest[:len(hash)])] = true
			}
		}
		for h := range probes {
			want, wantErr := modelGet(bucket, h)
			got, err := c.Get(h)
			switch {
			case h == hash && err != nil:
				t.Fatalf("appended record not found: %v", err)
			case wantErr == nil && (err != nil || !bytes.Equal(got, want)):
				t.Fatalf("hash %q: got %q, %v; want %q", h, got, err, want)
			case wantErr != nil && !errors.Is(err, wantErr):
				t.Fatalf("hash %q: got %q, %v; want %v", h, got, err, wantErr)
			}
		}
	})
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
