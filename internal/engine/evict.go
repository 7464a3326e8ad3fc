package engine

// Cache lifecycle for long-lived daemons: an optional size budget with
// access-ordered eviction. A CLI sweep lives for minutes and can let
// the content-addressed store grow monotonically; hifi-serve lives for
// weeks, and without a budget the cache eventually fills the disk the
// daemon also needs for its job index and logs.
//
// The design constraints come from the cache's concurrency story:
//
//   - Eviction only ever removes fully-renamed *.json objects. Temp
//     files (the O_CREATE|O_EXCL claims of in-flight writers, named
//     <hash>.json.tmp.<pid>.<seq>) and the quarantine directory are
//     never touched, so a concurrent Put — in this process or another
//     one sharing the directory — can never lose its claim mid-write.
//   - Removing an object a concurrent reader just opened is safe: the
//     reader already has the bytes or gets fs.ErrNotExist and
//     recomputes. Removing one a concurrent writer is about to rename
//     over is also safe: the rename recreates it.
//   - Ordering is by modification time. Get touches objects it serves
//     (Chtimes, best effort), so "least recently used" survives across
//     restarts without any sidecar state; a freshly-written object has
//     the newest mtime and is evicted last.
//
// Eviction is triggered by Put once the accounted size exceeds the
// budget, runs on at most one goroutine at a time (concurrent triggers
// return immediately), and sweeps down to evictLowWater of the budget
// so steady-state writes do not re-trigger it per object. See
// docs/engine.md ("cache size budgets & eviction").

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/log"
)

// evictLowWater is the fraction of the budget eviction sweeps down to,
// so the cache does not thrash at exactly the limit.
const evictLowWater = 0.9

// SetMaxBytes arms the size budget: once the objects tree exceeds max
// bytes, the least-recently-accessed objects are evicted until usage is
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

// SizeBytes returns the accounted size of the objects tree: exact as of
// the last eviction scan, plus every Put since. Only maintained once
// SetMaxBytes has armed the budget.
func (c *Cache) SizeBytes() int64 { return c.bytes.Load() }

// EvictedCount returns how many objects eviction has removed.
func (c *Cache) EvictedCount() uint64 { return c.evicted.Load() }

// Instrument registers the cache's lifecycle series on reg (nil-safe):
// the eviction counter and the accounted-bytes gauge. Safe to call
// before or after SetMaxBytes.
func (c *Cache) Instrument(reg *telemetry.Registry) {
	c.telEvictions = reg.Counter(telemetry.MetricEngineCacheEvictions,
		"cache objects evicted by the size budget")
	c.telBytes = reg.Gauge(telemetry.MetricEngineCacheBytes,
		"accounted bytes in the cache objects tree (budget accounting)")
}

// accountPut charges one stored object against the budget and triggers
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

// touch refreshes an object's access time so eviction order tracks
// reads, not just writes. Best effort: a read-only filesystem just
// degrades ordering to write time.
func (c *Cache) touch(path string) {
	if c.maxBytes.Load() <= 0 {
		return
	}
	_ = c.fsys.Chtimes(path, time.Now())
}

// cacheObject is one evictable entry discovered by the scan.
type cacheObject struct {
	path  string
	size  int64
	mtime time.Time
}

// evict rescans the objects tree and removes the oldest objects until
// usage is under the low-water mark. At most one sweep runs at a time;
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
	objects, total := c.scanObjects()
	target := int64(float64(max) * evictLowWater)
	if total > target {
		sort.Slice(objects, func(i, j int) bool { return objects[i].mtime.Before(objects[j].mtime) })
		removed := 0
		for _, o := range objects {
			if total <= target {
				break
			}
			if err := c.fsys.Remove(o.path); err != nil {
				// Already gone (another process evicted it) or a sick
				// disk; either way the next scan re-reconciles.
				continue
			}
			total -= o.size
			removed++
		}
		if removed > 0 {
			c.evicted.Add(uint64(removed))
			c.telEvictions.Add(float64(removed))
			log.Debugf("engine: cache evicted %d object(s), %d bytes accounted (budget %d)",
				removed, total, max)
		}
	}
	c.bytes.Store(total)
	c.telBytes.Set(float64(total))
}

// scanObjects walks the objects tree, skipping the quarantine directory
// and anything that is not a fully-renamed object (temp-file claims of
// in-flight writers keep their .tmp.<pid>.<seq> suffix and are never
// candidates).
func (c *Cache) scanObjects() ([]cacheObject, int64) {
	var (
		objects []cacheObject
		total   int64
	)
	qdir := c.QuarantineDir()
	_ = filepath.WalkDir(filepath.Join(c.dir, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path == qdir {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".json" {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				log.Debugf("engine: cache scan %s: %v", path, err)
			}
			return nil
		}
		objects = append(objects, cacheObject{path: path, size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
		return nil
	})
	return objects, total
}
