package engine

// Size-budget eviction tests: access-ordered removal of whole buckets
// under an explicit budget, safety of the never-evicted classes
// (quarantine, anything that is not a bucket file), and Put/Get/evict
// running concurrently under -race.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// payload builds a distinct valid-JSON payload of roughly n bytes.
func payload(i, n int) []byte {
	b, _ := json.Marshal(map[string]any{"i": i, "pad": string(make([]byte, n))})
	return b
}

func hashOf(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("evict-test-%d", i)))
	return hex.EncodeToString(sum[:])
}

func TestEvictionRemovesLeastRecentlyAccessed(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		if err := c.Put(hashOf(i), payload(i, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	// The eight hashes fall in eight buckets, so ordering buckets orders
	// objects. Deterministic access order: object i's bucket was last
	// touched at base+i, so 0 is the coldest. (Explicit Chtimes, not
	// sleeps.)
	buckets := map[string]bool{}
	for i := 0; i < n; i++ {
		buckets[c.bucket(hashOf(i))] = true
	}
	if len(buckets) != n {
		t.Fatalf("%d objects share %d buckets, want one bucket each", n, len(buckets))
	}
	base := time.Now().Add(-time.Hour)
	var perObj int64
	for i := 0; i < n; i++ {
		path := c.bucket(hashOf(i))
		if err := os.Chtimes(path, base.Add(time.Duration(i)*time.Minute), base.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		perObj = info.Size()
	}

	// Budget for ~4 buckets; the low-water sweep keeps <= 3.6 → 3.
	c.SetMaxBytes(4 * perObj)

	if got := c.EvictedCount(); got == 0 {
		t.Fatalf("eviction removed nothing under a %d-byte budget", 4*perObj)
	}
	if got := c.SizeBytes(); got > 4*perObj {
		t.Fatalf("accounted size %d still above budget %d", got, 4*perObj)
	}
	// The coldest objects are gone, the hottest survive.
	if _, err := c.Get(hashOf(0)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("coldest object survived eviction (err=%v)", err)
	}
	if _, err := c.Get(hashOf(n - 1)); err != nil {
		t.Fatalf("hottest object evicted: %v", err)
	}
}

// Only bucket files are evictable: quarantined records, a schema-2
// cache's object and in-flight temp claim, and stray files beside the
// buckets all survive a sweep that evicts every bucket.
func TestEvictionSparesQuarantineAndTempClaims(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	qdir := c.QuarantineDir()
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		t.Fatal(err)
	}
	objects := filepath.Join(dir, "objects")
	schema2 := filepath.Join(objects, hashOf(101)[:2])
	if err := os.MkdirAll(schema2, 0o755); err != nil {
		t.Fatal(err)
	}
	spared := []string{
		filepath.Join(qdir, hashOf(100)+".line"),                 // post-mortem evidence
		filepath.Join(schema2, hashOf(101)+".json"),              // a schema-2 object
		filepath.Join(schema2, hashOf(101)+".json.tmp.1234.1"),   // a schema-2 temp claim
		filepath.Join(objects, hashOf(102)[:2]+bucketExt+".bak"), // not a bucket name
		filepath.Join(objects, "zz"+bucketExt),                   // not a bucket name
	}
	old := time.Now().Add(-24 * time.Hour)
	for _, path := range spared {
		if err := os.WriteFile(path, []byte("not a bucket"), 0o644); err != nil {
			t.Fatal(err)
		}
		_ = os.Chtimes(path, old, old)
	}

	if err := c.Put(hashOf(0), payload(0, 1024)); err != nil {
		t.Fatal(err)
	}
	c.SetMaxBytes(1) // evict everything evictable

	if _, err := os.Stat(c.bucket(hashOf(0))); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("bucket survived a 1-byte budget: %v", err)
	}
	for _, path := range spared {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("non-bucket file evicted: %v", err)
		}
	}
}

// Concurrent writers and readers race the sweeper; no Get may ever see
// a torn record (ErrCorrupt) — missing is fine, wrong is not.
func TestEvictionConcurrentWithPutsAndGets(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	c.SetMaxBytes(16 * 1024)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := w*50 + i
				if err := c.Put(hashOf(k), payload(k, 512)); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
				if _, err := c.Get(hashOf(k)); err != nil && !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("get %d after put: %v", k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.CorruptCount() != 0 {
		t.Fatalf("eviction corrupted %d object(s)", c.CorruptCount())
	}
	if got, max := c.SizeBytes(), c.MaxBytes(); got > 2*max {
		t.Fatalf("accounted size %d ran far past the %d budget", got, max)
	}
}
