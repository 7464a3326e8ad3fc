package engine

// Content-addressed result cache. Every payload is stored under the
// SHA-256 of (schema | code version | job key), laid out git-style as
// <dir>/objects/<hh>/<hash>.json so one directory never holds millions
// of entries. Writes are atomic (temp file + rename), so a killed sweep
// can never leave a truncated payload behind for its rerun to trust.
//
// Atomicity protects against torn writes, not against the disk itself:
// a bit flip, an fsck truncation, or an operator editing an object by
// hand would otherwise JSON-decode into a zero result and silently
// poison a sweep. Each object therefore carries a checksum header
//
//	hifi1 <sha256(payload) hex>\n<payload>
//
// verified on every Get. A mismatch (or a missing/garbled header, or a
// payload that is not valid JSON) returns ErrCorrupt and the object is
// moved aside to <dir>/objects/quarantine/ for post-mortem; the engine
// falls through to recomputation, so corruption costs one re-execution,
// never a wrong table. See docs/engine.md ("failure modes & recovery").

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync/atomic"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/log"
)

// CacheSchema versions the object encoding; bump it to invalidate every
// cached result when the canonical JSON projection — or, as with the
// schema-2 checksum header, the on-disk framing — changes shape.
const CacheSchema = 2

// objectMagic prefixes every object file, followed by the payload
// checksum and a newline.
const objectMagic = "hifi1 "

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
// for concurrent use by the worker pool; concurrent Puts of the same
// hash are idempotent because equal keys produce equal payloads.
type Cache struct {
	dir     string
	version string
	fsys    FS
	seq     atomic.Uint64 // unique temp-file suffixes
	corrupt atomic.Uint64 // objects quarantined by Get

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
	return &Cache{dir: dir, version: version, fsys: fsys}, nil
}

// Version returns the code version mixed into every hash.
func (c *Cache) Version() string { return c.version }

// CorruptCount returns how many objects Get has quarantined.
func (c *Cache) CorruptCount() uint64 { return c.corrupt.Load() }

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, "objects", hash[:2], hash+".json")
}

// QuarantineDir is where corrupt objects are moved for post-mortem.
func (c *Cache) QuarantineDir() string {
	return filepath.Join(c.dir, "objects", "quarantine")
}

// Get returns the payload stored under hash after verifying its
// checksum. A missing object returns an error matching fs.ErrNotExist;
// a present-but-damaged object is quarantined and returns an error
// matching ErrCorrupt. Any non-nil error means "not usable: recompute".
func (c *Cache) Get(hash string) ([]byte, error) {
	path := c.path(hash)
	b, err := c.fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := verifyObject(b)
	if err != nil {
		c.quarantine(hash, path)
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, hash[:12], err)
	}
	// Under a size budget, a served object is a recently-useful object:
	// refresh its mtime so eviction order is access order.
	c.touch(path)
	return payload, nil
}

// verifyObject checks the framing and checksum of one object file and
// returns the payload.
func verifyObject(b []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(b, []byte(objectMagic))
	if !ok {
		return nil, errors.New("missing object header")
	}
	sum, payload, ok := bytes.Cut(rest, []byte{'\n'})
	if !ok {
		return nil, errors.New("truncated object header")
	}
	want := sha256.Sum256(payload)
	if string(sum) != hex.EncodeToString(want[:]) {
		return nil, errors.New("checksum mismatch")
	}
	// Belt and braces: the engine only stores canonical JSON, so a
	// checksummed non-JSON payload still means something is wrong.
	if !json.Valid(payload) {
		return nil, errors.New("payload is not valid JSON")
	}
	return payload, nil
}

// quarantine moves a damaged object out of the addressable tree so the
// evidence survives but the next Get recomputes. Best effort: if the
// move fails the object is deleted instead, and if that fails too the
// corrupt bytes will simply be re-detected next read.
func (c *Cache) quarantine(hash, path string) {
	c.corrupt.Add(1)
	qdir := c.QuarantineDir()
	if err := c.fsys.MkdirAll(qdir); err == nil {
		if err := c.fsys.Rename(path, filepath.Join(qdir, hash+".json")); err == nil {
			return
		}
	}
	if err := c.fsys.Remove(path); err != nil {
		log.Errorf("engine: quarantine %s: cannot move or remove: %v", hash[:12], err)
	}
}

// Put stores payload under hash atomically, framed with the checksum
// header Get verifies.
//
// The temp-file name mixes the PID and a per-Cache sequence number, and
// the temp file is created exclusively (O_CREATE|O_EXCL): two processes
// sharing the cache directory — a daemon and a CLI pointed at the same
// -cache-dir, or a crashed writer's PID reused by a live one — can
// therefore never interleave writes into the same temp file and rename
// a torn hybrid into the addressable tree. A name collision just means
// someone else holds that claim; we take a fresh sequence number and
// try again. The final rename stays last-writer-wins, which is safe
// because equal hashes carry equal payloads.
func (c *Cache) Put(hash string, payload []byte) error {
	path := c.path(hash)
	if err := c.fsys.MkdirAll(filepath.Dir(path)); err != nil {
		return err
	}
	sum := sha256.Sum256(payload)
	obj := make([]byte, 0, len(objectMagic)+hex.EncodedLen(len(sum))+1+len(payload))
	obj = append(obj, objectMagic...)
	obj = append(obj, hex.EncodeToString(sum[:])...)
	obj = append(obj, '\n')
	obj = append(obj, payload...)
	var tmp string
	for attempt := 0; ; attempt++ {
		tmp = fmt.Sprintf("%s.tmp.%d.%d", path, os.Getpid(), c.seq.Add(1))
		err := c.fsys.WriteFileExcl(tmp, obj)
		if err == nil {
			break
		}
		if !errors.Is(err, fs.ErrExist) || attempt >= 8 {
			return err
		}
	}
	if err := c.fsys.Rename(tmp, path); err != nil {
		c.fsys.Remove(tmp)
		return err
	}
	c.accountPut(int64(len(obj)))
	return nil
}
