package engine

// Cache lifecycle for long-lived daemons: an optional size budget with
// access-ordered eviction. A CLI sweep lives for minutes and can let
// the content-addressed store grow monotonically; hifi-serve lives for
// weeks, and without a budget the cache eventually fills the disk the
// daemon also needs for its job index and logs.
//
// The unit of eviction is a whole bucket file, about 1/256 of the cache:
// records are appended to their bucket and never rewritten, so a bucket
// can only be kept or removed. The design constraints come from the
// cache's concurrency story:
//
//   - Eviction only ever removes objects/<hh>.pack bucket files. The
//     quarantine directory and anything else under objects/ (a schema-2
//     cache's <hh>/ directories, stray files) are never touched.
//   - Removing a bucket a concurrent reader just opened is safe: the
//     reader already has the bytes or gets fs.ErrNotExist and
//     recomputes. Removing one a concurrent writer holds open loses at
//     most that writer's record, which lands in the unlinked file: a
//     later read misses and recomputes. Never a wrong result.
//   - Ordering is by modification time. Get touches the bucket it serves
//     from (Chtimes, best effort), so "least recently used" survives
//     across restarts without any sidecar state; an append also sets
//     the mtime, so a freshly-written bucket is evicted last.
//
// Eviction is triggered by Put once the accounted size exceeds the
// budget, runs on at most one goroutine at a time (concurrent triggers
// return immediately), and sweeps down to evictLowWater of the budget
// so steady-state writes do not re-trigger it per record. See
// docs/engine.md ("cache size budgets & eviction").

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/log"
)

// evictLowWater is the fraction of the budget eviction sweeps down to,
// so the cache does not thrash at exactly the limit.
const evictLowWater = 0.9

// SetMaxBytes arms the size budget: once the bucket files exceed max
// bytes, the least-recently-accessed buckets are evicted until usage is
// back under evictLowWater of the budget. max <= 0 disables eviction.
// The current usage is scanned immediately so a pre-filled directory is
// brought under budget without waiting for the first Put.
func (c *Cache) SetMaxBytes(max int64) {
	c.maxBytes.Store(max)
	if max > 0 {
		c.evict()
	}
}

// MaxBytes returns the configured budget (0 = unlimited).
func (c *Cache) MaxBytes() int64 { return c.maxBytes.Load() }

// SizeBytes returns the accounted size of the bucket files: exact as of
// the last eviction scan, plus every Put since. Only maintained once
// SetMaxBytes has armed the budget.
func (c *Cache) SizeBytes() int64 { return c.bytes.Load() }

// EvictedCount returns how many bucket files eviction has removed.
func (c *Cache) EvictedCount() uint64 { return c.evicted.Load() }

// Instrument registers the cache's lifecycle series on reg (nil-safe):
// the eviction counter and the accounted-bytes gauge. Safe to call
// before or after SetMaxBytes.
func (c *Cache) Instrument(reg *telemetry.Registry) {
	c.telEvictions = reg.Counter(telemetry.MetricEngineCacheEvictions,
		"cache bucket files evicted by the size budget")
	c.telBytes = reg.Gauge(telemetry.MetricEngineCacheBytes,
		"accounted bytes in the cache bucket files (budget accounting)")
}

// accountPut charges one stored record against the budget and triggers
// an eviction sweep when it tips usage over the limit.
func (c *Cache) accountPut(n int64) {
	max := c.maxBytes.Load()
	if max <= 0 {
		return
	}
	total := c.bytes.Add(n)
	c.telBytes.Set(float64(total))
	if total > max {
		c.evict()
	}
}

// touch refreshes a bucket's access time so eviction order tracks
// reads, not just writes. Best effort: a read-only filesystem just
// degrades ordering to write time.
func (c *Cache) touch(path string) {
	if c.maxBytes.Load() <= 0 {
		return
	}
	_ = c.fsys.Chtimes(path, time.Now())
}

// bucketFile is one evictable bucket discovered by the scan.
type bucketFile struct {
	path  string
	size  int64
	mtime time.Time
}

// evict rescans the bucket files and removes the oldest until usage is
// under the low-water mark. At most one sweep runs at a time;
// concurrent triggers return immediately (the running sweep sees their
// writes in its scan or the next trigger does).
func (c *Cache) evict() {
	if !c.sweeping.CompareAndSwap(false, true) {
		return
	}
	defer c.sweeping.Store(false)

	max := c.maxBytes.Load()
	if max <= 0 {
		return
	}
	buckets, total := c.scanBuckets()
	target := int64(float64(max) * evictLowWater)
	if total > target {
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].mtime.Before(buckets[j].mtime) })
		removed := 0
		for _, b := range buckets {
			if total <= target {
				break
			}
			if err := c.fsys.Remove(b.path); err != nil {
				// Already gone (another process evicted it) or a sick
				// disk; either way the next scan re-reconciles.
				continue
			}
			total -= b.size
			removed++
		}
		if removed > 0 {
			c.evicted.Add(uint64(removed))
			c.telEvictions.Add(float64(removed))
			log.Debugf("engine: cache evicted %d bucket(s), %d bytes accounted (budget %d)",
				removed, total, max)
		}
	}
	c.bytes.Store(total)
	c.telBytes.Set(float64(total))
}

// scanBuckets lists the bucket files directly under objects/. Anything
// else there — the quarantine directory, a schema-2 cache's <hh>/
// directories, stray files — is never a candidate.
func (c *Cache) scanBuckets() ([]bucketFile, int64) {
	dir := filepath.Join(c.dir, "objects")
	entries, err := os.ReadDir(dir)
	if err != nil {
		log.Debugf("engine: cache scan %s: %v", dir, err)
		return nil, 0
	}
	var (
		buckets []bucketFile
		total   int64
	)
	for _, d := range entries {
		if !d.Type().IsRegular() || !isBucketName(d.Name()) {
			continue
		}
		info, err := d.Info()
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				log.Debugf("engine: cache scan %s: %v", d.Name(), err)
			}
			continue
		}
		buckets = append(buckets, bucketFile{path: filepath.Join(dir, d.Name()), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	return buckets, total
}

// isBucketName reports whether name is a bucket file's: two lower-case
// hex digits and the bucket extension.
func isBucketName(name string) bool {
	hh, ok := strings.CutSuffix(name, bucketExt)
	return ok && len(hh) == 2 && strings.Trim(hh, "0123456789abcdef") == ""
}
