package faultfs_test

// The end-to-end chaos tests: the engine driven over a faulting
// filesystem must keep its determinism contract — exit 0, correct
// payloads — while the robustness counters record what it survived.
// CI runs this package under -race (the `chaos` job).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/engine/faultfs"
)

func chaosJobs(n int, execs *atomic.Int64) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = engine.Job{
			Key:   fmt.Sprintf("chaos-job|%d", i),
			Label: fmt.Sprintf("chaos%d", i),
			Fn: func(ctx context.Context) (any, error) {
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

// cachedRecord is one verified record line found in a bucket file.
type cachedRecord struct {
	path       string
	hash       string
	start, end int // the line's bytes, without its newline
}

// scanRecords lists the records under dir/objects whose checksum
// verifies, parsing the bucket format independently of the engine.
func scanRecords(t *testing.T, dir string) []cachedRecord {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "objects", "*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []cachedRecord
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; ; {
			n := bytes.IndexByte(raw[start:], '\n')
			if n < 0 {
				break
			}
			f := strings.SplitN(string(raw[start:start+n]), " ", 4)
			if len(f) == 4 && f[0] == "hifi2" {
				sum := sha256.Sum256([]byte(f[3]))
				if f[2] == hex.EncodeToString(sum[:]) {
					recs = append(recs, cachedRecord{path: path, hash: f[1], start: start, end: start + n})
				}
			}
			start += n + 1
		}
	}
	return recs
}

// chaosRecord is the record line job i's result is stored as.
func chaosRecord(version string, i int) string {
	p, _ := json.Marshal(map[string]int{"index": i, "cube": i * i * i})
	sum := sha256.Sum256(p)
	hash := engine.HashKey(version, fmt.Sprintf("chaos-job|%d", i))
	return "hifi2 " + hash + " " + hex.EncodeToString(sum[:]) + " " + string(p)
}

// TestChaosSweep: tear cache appends, then corrupt >=10% of the cache
// records and rerun the sweep over them — both sweeps must complete
// with a nil error and byte-correct payloads, and every corruption the
// rerun counts must be one the disk holds.
func TestChaosSweep(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	// Tear every 7th append: the torn record has no newline, so the
	// job's record is missing and the rerun recomputes it, or, once a
	// later append to the bucket closes the line, damaged, which the
	// rerun counts and recomputes.
	ffs := faultfs.New(nil, faultfs.Options{TornWriteEveryNth: 7})
	cache, err := engine.OpenCacheFS(dir, "v-chaos", ffs)
	if err != nil {
		t.Fatal(err)
	}

	var execs atomic.Int64
	jobs := chaosJobs(n, &execs)
	rep, err := engine.New(engine.Options{Workers: 4, Cache: cache}).Run(context.Background(), jobs)
	if err != nil {
		t.Fatalf("chaos sweep failed: %v", err)
	}
	checkPayloads(t, rep)

	// Corrupt >=10% of the surviving records on disk: flip a payload
	// byte and keep the header, so the line still names its hash.
	recs := scanRecords(t, dir)
	if len(recs) < n/2 {
		t.Fatalf("only %d records cached, torn writes ate too many", len(recs))
	}
	damaged := map[string]string{} // hash -> damaged line
	for i, r := range recs {
		if i%5 != 0 { // 20% of records
			continue
		}
		raw, err := os.ReadFile(r.path)
		if err != nil {
			t.Fatal(err)
		}
		raw[r.end-2] ^= 0x01
		if err := os.WriteFile(r.path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged[r.hash] = string(raw[r.start:r.end])
	}
	if len(damaged)*10 < len(recs) {
		t.Fatalf("corrupted %d of %d records, need >=10%%", len(damaged), len(recs))
	}

	// Rerun over the damaged cache with a fresh engine, still on the
	// torn FS.
	cache2, err := engine.OpenCacheFS(dir, "v-chaos", ffs)
	if err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(engine.Options{Workers: 4, Cache: cache2})
	jobs2 := chaosJobs(n, &execs)
	rep2, err := e2.Run(context.Background(), jobs2)
	if err != nil {
		t.Fatalf("rerun over the damaged cache failed: %v", err)
	}
	checkPayloads(t, rep2)
	s := e2.Status()
	if rep2.Executed == 0 || rep2.CacheHits == 0 {
		t.Errorf("rerun split executed/hits = %d/%d: want both nonzero", rep2.Executed, rep2.CacheHits)
	}
	if c := ffs.Counts(); c.Torn == 0 {
		t.Errorf("faultfs counts = %+v: no torn writes fired", c)
	}

	// Every damaged record was caught and quarantined once; any other
	// quarantined line is a torn append, a strict prefix of its job's
	// record, that a later append closed off. The torn FS may tear the
	// quarantine copy too, so a copy may hold a prefix of its line.
	records := map[string]string{}
	for i := 0; i < n; i++ {
		rec := chaosRecord("v-chaos", i)
		records[rec[len("hifi2 "):len("hifi2 ")+64]] = rec
	}
	quarantined, err := os.ReadDir(cache2.QuarantineDir())
	if err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, q := range quarantined {
		hash := strings.TrimSuffix(q.Name(), ".line")
		b, err := os.ReadFile(filepath.Join(cache2.QuarantineDir(), q.Name()))
		if err != nil {
			t.Fatal(err)
		}
		line := strings.TrimSuffix(string(b), "\n")
		want, isDamaged := damaged[hash]
		if !isDamaged {
			want = records[hash]
			torn++
		}
		if line == "" || !strings.HasPrefix(want, line) || (!isDamaged && len(line) == len(want)) {
			t.Errorf("quarantined %q for %s: neither the damaged line nor a torn append of %q", line, hash[:12], want)
		}
	}
	for hash := range damaged {
		if _, err := os.Stat(filepath.Join(cache2.QuarantineDir(), hash+".line")); err != nil {
			t.Errorf("damaged record %s not quarantined: %v", hash[:12], err)
		}
	}
	if want := len(damaged) + torn; int(s.Corrupt) != want || cache2.CorruptCount() != uint64(want) {
		t.Errorf("corrupt counter = %d, cache quarantined %d; want %d (%d damaged + %d torn)",
			s.Corrupt, cache2.CorruptCount(), want, len(damaged), torn)
	}
	t.Logf("%d records damaged, %d closed-off torn appends, %d quarantined", len(damaged), torn, len(quarantined))
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
	jobs := chaosJobs(12, &execs)
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
	jobs := chaosJobs(12, &execs)
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

	broken := faultfs.New(nil, faultfs.Options{TornWriteEveryNth: 1})
	cache, err := engine.OpenCacheFS(dir, "v-ro", broken)
	if err != nil {
		t.Fatal(err)
	}
	var execs atomic.Int64
	jobs := chaosJobs(8, &execs)
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
