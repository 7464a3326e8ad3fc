package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"
)

// Two Cache instances over one directory model two processes sharing
// -cache-dir (a daemon and a CLI, or two daemons). With the O_EXCL
// temp-file claim, concurrent writers of the same objects must never
// make a reader observe a torn or mixed object: every Get sees either
// "not there yet" or the exact checksummed payload — ErrCorrupt is a
// protocol violation.
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
	// — the same-key overwrite is the contended path the claim protects.
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

// The exclusive-create claim itself: a pre-existing temp path makes
// WriteFileExcl fail with fs.ErrExist, and Put retries onto a fresh
// sequence number instead of clobbering the other writer's file.
func TestWriteFileExclRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	for _, fsys := range []FS{OS(), MemFS()} {
		path := dir + fmt.Sprintf("/claim-%T", fsys)
		if err := fsys.WriteFileExcl(path, []byte("first")); err != nil {
			t.Fatal(err)
		}
		err := fsys.WriteFileExcl(path, []byte("second"))
		if !errors.Is(err, fs.ErrExist) {
			t.Fatalf("%T: second exclusive create: got %v, want fs.ErrExist", fsys, err)
		}
		b, err := fsys.ReadFile(path)
		if err != nil || string(b) != "first" {
			t.Fatalf("%T: claimed file was disturbed: %q, %v", fsys, b, err)
		}
	}
}
