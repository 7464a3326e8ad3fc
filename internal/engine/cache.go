package engine

// Content-addressed result cache. Every payload is stored under the
// SHA-256 of (schema | code version | job key), as one line appended to
// one of 256 bucket files, <dir>/objects/<hh>.pack, named by the hash's
// first byte. A cache directory therefore creates at most 256 files over
// its life, not one per result: on ext4 a file creation costs tens to
// hundreds of microseconds, an append to an existing file a few
// (docs/perf.md, "One file per bucket").
//
// A record is one line, written by a single O_APPEND write:
//
//	hifi2 <hash> <sha256(payload) hex> <payload>\n
//
// Every write starts with a newline, so a torn earlier append, which
// ends without one, becomes a damaged line of its own instead of
// swallowing the record written after it. Only a newline-terminated line
// was written whole: an unterminated last line is an append still in
// flight, or a torn one, and readers skip it.
//
// The checksum guards against the disk itself: a bit flip, an fsck
// truncation, or an operator editing a bucket by hand would otherwise
// JSON-decode into a zero result and silently poison a sweep. A bucket
// holding only damaged lines for a hash makes Get return ErrCorrupt and
// copy the damaged line to <dir>/objects/quarantine/ for post-mortem;
// the engine recomputes and appends a fresh record, which Get serves
// from then on. Corruption costs one re-execution, never a wrong table.
// See docs/engine.md ("failure modes & recovery").

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/log"
)

// CacheSchema versions the object encoding; bump it to invalidate every
// cached result when the canonical JSON projection — or, as with the
// schema-3 bucket records, the on-disk framing — changes shape.
const CacheSchema = 3

// recordMagic starts every record line, followed by the hash, the
// payload checksum and the payload, separated by single spaces.
const recordMagic = "hifi2 "

// bucketExt names the bucket files under objects/.
const bucketExt = ".pack"

// sharedMemoBudget bounds the key and payload bytes of a cache's shared
// memo (Cache.share). An insertion that would pass it empties the memo
// first, so a long-lived daemon holds at most this much and its engines
// read what they need back from disk again. serve-warm's eight specs
// (896 results) count 0.7 MiB.
const sharedMemoBudget = 16 << 20

// ErrCorrupt marks a cache object that failed checksum or framing
// verification. Callers match it with errors.Is and recompute.
var ErrCorrupt = errors.New("engine: corrupt cache object")

// CodeVersion identifies the code that produced a payload. It prefers
// the VCS revision baked into the build (plus a dirty marker), so a
// rebuilt binary with changed code misses the old cache; uncommitted dev
// builds and `go test` binaries fall back to "dev", where the schema
// constants above are the manual invalidation lever.
func CodeVersion() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "dev"
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "dev"
	}
	return rev + dirty
}

// HashKey derives the content address of a job: SHA-256 over the cache
// schema, the code version, and the canonical job key.
func HashKey(version, jobKey string) string {
	sum := sha256.Sum256([]byte("engine/" + strconv.Itoa(CacheSchema) + "|" + version + "|" + jobKey))
	return hex.EncodeToString(sum[:])
}

// Cache is an on-disk content-addressed payload store. Methods are safe
// for concurrent use by the worker pool and by other processes sharing
// the directory; concurrent Puts of the same hash are idempotent because
// equal keys produce equal payloads.
type Cache struct {
	dir     string
	version string
	fsys    FS
	corrupt atomic.Uint64 // damaged records quarantined by Get

	// Size-budget state (evict.go). maxBytes <= 0 means unlimited;
	// bytes is the accounted usage (exact at the last scan, plus Puts
	// since); sweeping serializes eviction sweeps.
	maxBytes atomic.Int64
	bytes    atomic.Int64
	evicted  atomic.Uint64
	sweeping atomic.Bool

	// Optional instrumentation (Instrument); the telemetry types are
	// nil-safe, so an uninstrumented cache pays only a nil check.
	telEvictions *telemetry.Counter
	telBytes     *telemetry.Gauge

	// memo is the process-wide memo of the results engines read back
	// from this cache, by job key: an engine adopts an entry another
	// engine read, so it neither reads, verifies nor decodes it again.
	// memoBytes counts its keys and payloads, at most memoBudget
	// (sharedMemoBudget).
	memoMu     sync.Mutex
	memo       map[string]*memoEntry
	memoBytes  int
	memoBudget int
}

// OpenCache opens (creating if needed) a cache rooted at dir. An empty
// version selects CodeVersion().
func OpenCache(dir, version string) (*Cache, error) {
	return OpenCacheFS(dir, version, OS())
}

// OpenCacheFS is OpenCache over an explicit filesystem; the fault tests
// use it to interpose faultfs.
func OpenCacheFS(dir, version string, fsys FS) (*Cache, error) {
	if version == "" {
		version = CodeVersion()
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "objects")); err != nil {
		return nil, fmt.Errorf("engine: open cache: %w", err)
	}
	return &Cache{dir: dir, version: version, fsys: fsys, memoBudget: sharedMemoBudget}, nil
}

// Version returns the code version mixed into every hash.
func (c *Cache) Version() string { return c.version }

// CorruptCount returns how many damaged records Get has quarantined.
func (c *Cache) CorruptCount() uint64 { return c.corrupt.Load() }

// recall returns key's shared entry, or nil.
func (c *Cache) recall(key string) *memoEntry {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	return c.memo[key]
}

// share makes m key's shared entry unless the key has one already, and
// returns the key's entry, so engines that read a key at once end up
// with one entry and one decode. An insertion that would pass the
// budget empties the memo first; an entry larger than the whole budget
// is not kept.
func (c *Cache) share(key string, m *memoEntry) *memoEntry {
	size := len(key) + len(m.payload)
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if old := c.memo[key]; old != nil {
		return old
	}
	if size > c.memoBudget {
		return m
	}
	if c.memo == nil || c.memoBytes+size > c.memoBudget {
		c.memo, c.memoBytes = map[string]*memoEntry{}, 0
	}
	c.memo[key] = m
	c.memoBytes += size
	return m
}

// bucket is the file holding hash's records.
func (c *Cache) bucket(hash string) string {
	return filepath.Join(c.dir, "objects", hash[:2]+bucketExt)
}

// QuarantineDir is where damaged records are copied for post-mortem.
func (c *Cache) QuarantineDir() string {
	return filepath.Join(c.dir, "objects", "quarantine")
}

// Get returns a copy of the payload stored under hash after verifying
// its checksum. A hash with no complete record returns an error
// matching fs.ErrNotExist; one whose only records are damaged is
// quarantined and returns an error matching ErrCorrupt. Any non-nil
// error means "not usable: recompute".
func (c *Cache) Get(hash string) ([]byte, error) {
	path := c.bucket(hash)
	b, err := c.fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, damaged, verr := findRecord(b, hash)
	switch {
	case payload != nil:
		// Under a size budget, a served bucket is a recently-useful
		// bucket: refresh its mtime so eviction order is access order.
		c.touch(path)
		// A copy, so a caller that keeps the payload does not pin the
		// whole bucket's buffer.
		return bytes.Clone(payload), nil
	case damaged != nil:
		c.quarantine(hash, damaged)
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, hash[:12], verr)
	}
	return nil, fs.ErrNotExist
}

// findRecord scans a bucket's complete lines for hash. It returns the
// payload of the first line that verifies; failing that, the first line
// that names hash but does not verify, with the reason. Both are nil
// when no complete line names hash.
func findRecord(bucket []byte, hash string) (payload, damaged []byte, err error) {
	for {
		i := bytes.IndexByte(bucket, '\n')
		if i < 0 {
			// The unterminated tail: an append in flight, or a torn one.
			return nil, damaged, err
		}
		line := bucket[:i]
		bucket = bucket[i+1:]
		rest, ok := bytes.CutPrefix(line, []byte(recordMagic))
		if !ok || len(rest) <= len(hash) || string(rest[:len(hash)]) != hash || rest[len(hash)] != ' ' {
			continue
		}
		p, lerr := verifyRecord(rest[len(hash)+1:])
		if lerr == nil {
			return p, nil, nil
		}
		if damaged == nil {
			damaged, err = line, lerr
		}
	}
}

// verifyRecord checks the checksum and JSON of one record's
// "<sum> <payload>" tail and returns the payload.
func verifyRecord(rest []byte) ([]byte, error) {
	sum, payload, ok := bytes.Cut(rest, []byte{' '})
	if !ok {
		return nil, errors.New("truncated record header")
	}
	var want [2 * sha256.Size]byte
	s := sha256.Sum256(payload)
	hex.Encode(want[:], s[:])
	if !bytes.Equal(sum, want[:]) {
		return nil, errors.New("checksum mismatch")
	}
	// Belt and braces: the engine only stores canonical JSON, so a
	// checksummed non-JSON payload still means something is wrong.
	if !json.Valid(payload) {
		return nil, errors.New("payload is not valid JSON")
	}
	return payload, nil
}

// quarantine counts a damaged record and copies its line out of the
// bucket, so the evidence survives the bucket's eviction. The line
// itself stays in the append-only bucket, where the recomputed record
// appended after it takes over. Best effort: a failed copy is logged
// and costs only the evidence.
func (c *Cache) quarantine(hash string, line []byte) {
	c.corrupt.Add(1)
	qdir := c.QuarantineDir()
	err := c.fsys.MkdirAll(qdir)
	if err == nil {
		err = c.fsys.WriteFile(filepath.Join(qdir, hash+".line"), append(bytes.Clone(line), '\n'))
	}
	if err != nil {
		log.Errorf("engine: quarantine %s: cannot copy the damaged record: %v", hash[:12], err)
	}
}

// Put appends payload's record to hash's bucket in one O_APPEND write.
//
// Appends of whole records never interleave: each is one write call on
// a file opened with O_APPEND, which a local filesystem positions at the
// end of the file and completes before the next append to that file
// starts, whichever process makes it. Two processes sharing the cache
// directory — a daemon and a CLI pointed at the same -cache-dir — can
// therefore never mix their records, and a reader that catches an
// append in flight sees an unterminated last line, which it skips. A
// payload holding a newline could not be framed as one line and is
// refused.
func (c *Cache) Put(hash string, payload []byte) error {
	if bytes.IndexByte(payload, '\n') >= 0 {
		return fmt.Errorf("engine: cache put %s: payload contains a newline", hash[:12])
	}
	sum := sha256.Sum256(payload)
	rec := make([]byte, 0, 1+len(recordMagic)+len(hash)+1+hex.EncodedLen(len(sum))+1+len(payload)+1)
	rec = append(rec, '\n')
	rec = append(rec, recordMagic...)
	rec = append(rec, hash...)
	rec = append(rec, ' ')
	rec = hex.AppendEncode(rec, sum[:])
	rec = append(rec, ' ')
	rec = append(rec, payload...)
	rec = append(rec, '\n')
	w, err := c.fsys.OpenAppend(c.bucket(hash))
	if err != nil {
		return err
	}
	if _, err := w.Write(rec); err != nil {
		_ = w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	c.accountPut(int64(len(rec)))
	return nil
}
