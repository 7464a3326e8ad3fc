package engine

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// Two Cache instances over one directory model two processes sharing
// -cache-dir (a daemon and a CLI, or two daemons). With one O_APPEND
// write per record, concurrent writers of the same objects into the
// same buckets must never make a reader observe a torn or mixed object:
// every Get sees either "not there yet" or the exact checksummed payload
// — ErrCorrupt is a protocol violation.
// The in-memory FS a CLI run without -cache-dir uses is held to the
// same contract, with both caches sharing one MemFS.
func TestCacheConcurrentWriters(t *testing.T) {
	t.Run("os", func(t *testing.T) { concurrentWriters(t, OS()) })
	t.Run("mem", func(t *testing.T) { concurrentWriters(t, MemFS()) })
}

func concurrentWriters(t *testing.T, fsys FS) {
	dir := t.TempDir()
	c1, err := OpenCacheFS(dir, "v-shared", fsys)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCacheFS(dir, "v-shared", fsys)
	if err != nil {
		t.Fatal(err)
	}
	caches := []*Cache{c1, c2}

	const objects = 24
	hashes := make([]string, objects)
	payloads := make([][]byte, objects)
	for i := range hashes {
		hashes[i] = HashKey("v-shared", fmt.Sprintf("shared-job-%d", i))
		payloads[i] = []byte(fmt.Sprintf(`{"object":%d,"payload":"0123456789abcdef"}`, i))
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)

	// Writers: both "processes" race to publish every object, repeatedly
	// — appends of the same records into shared buckets are the
	// contended path.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := caches[w%len(caches)]
			for round := 0; round < 8; round++ {
				for i := range hashes {
					if err := c.Put(hashes[i], payloads[i]); err != nil {
						errc <- fmt.Errorf("writer %d: Put %d: %w", w, i, err)
						return
					}
				}
			}
		}(w)
	}

	// Readers: from both "processes", concurrently with the writers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := caches[r%len(caches)]
			for round := 0; round < 16; round++ {
				for i := range hashes {
					b, err := c.Get(hashes[i])
					switch {
					case err == nil:
						if string(b) != string(payloads[i]) {
							errc <- fmt.Errorf("reader %d: object %d: got %q", r, i, b)
							return
						}
					case errors.Is(err, fs.ErrNotExist):
						// Not published yet — fine.
					default:
						errc <- fmt.Errorf("reader %d: object %d: %w", r, i, err)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if n := c1.CorruptCount() + c2.CorruptCount(); n != 0 {
		t.Fatalf("concurrent writers produced %d corrupt object(s)", n)
	}
	// After the dust settles every object is readable from either side.
	for i := range hashes {
		for ci, c := range caches {
			b, err := c.Get(hashes[i])
			if err != nil {
				t.Fatalf("cache %d: object %d unreadable after writers finished: %v", ci, i, err)
			}
			if string(b) != string(payloads[i]) {
				t.Fatalf("cache %d: object %d: got %q", ci, i, b)
			}
		}
	}
}

// createCountingFS counts the files an FS call brings into existence.
type createCountingFS struct {
	FS
	creates int
}

func (f *createCountingFS) count(path string) {
	if _, err := os.Lstat(path); errors.Is(err, fs.ErrNotExist) {
		f.creates++
	}
}

func (f *createCountingFS) WriteFile(path string, data []byte) error {
	f.count(path)
	return f.FS.WriteFile(path, data)
}

func (f *createCountingFS) OpenAppend(path string) (io.WriteCloser, error) {
	f.count(path)
	return f.FS.OpenAppend(path)
}

// A cache directory pays at most one file creation per bucket over its
// life: 600 distinct results land in at most 256 files, and a second
// cache over the directory reads every one of them back.
func TestCacheCreatesAtMostOneFilePerBucket(t *testing.T) {
	const n = 600
	dir := t.TempDir()
	fsys := &createCountingFS{FS: OS()}
	c, err := OpenCacheFS(dir, "v-count", fsys)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]string, n)
	for i := range hashes {
		hashes[i] = HashKey("v-count", fmt.Sprintf("count-job-%d", i))
		if err := c.Put(hashes[i], payload(i, 16)); err != nil {
			t.Fatal(err)
		}
	}
	if fsys.creates > 256 {
		t.Errorf("%d distinct Puts created %d files, want at most 256", n, fsys.creates)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) > 256 {
		t.Errorf("objects/ holds %d entries, want at most 256", len(entries))
	}

	c2, err := OpenCache(dir, "v-count")
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hashes {
		b, err := c2.Get(h)
		if err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
		if string(b) != string(payload(i, 16)) {
			t.Fatalf("object %d: got %q", i, b)
		}
	}
}
