package engine

// The engine's cache buckets and hifi-serve's job index go through the
// narrow FS interface instead of the os package directly, so the fault
// tests in engine/faultfs can interpose torn writes, read errors,
// corruption and a read-only disk without touching the real filesystem
// code paths. A cache on disk uses OS(), the trivial passthrough; a CLI run
// without a cache directory keeps its cache in MemFS().

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"sync"
	"time"
)

// FS is the slice of filesystem behaviour the engine needs. All paths
// are OS paths; semantics match the corresponding os functions.
type FS interface {
	MkdirAll(dir string) error
	ReadFile(path string) ([]byte, error)
	WriteFile(path string, data []byte) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// Chtimes sets path's access and modification times. The cache uses
	// it to touch buckets on read, so eviction under a size budget is
	// access-ordered rather than write-ordered.
	Chtimes(path string, t time.Time) error
	// OpenAppend opens path for appending, creating it if needed. Each
	// Write lands whole at the end of the file, after every write that
	// completed before it: the cache's records and the job index's
	// lines rely on it.
	OpenAppend(path string) (io.WriteCloser, error)
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error                { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func (osFS) WriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func (osFS) Rename(oldpath, newpath string) error     { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                 { return os.Remove(path) }
func (osFS) Chtimes(path string, t time.Time) error {
	return os.Chtimes(path, t, t)
}
func (osFS) OpenAppend(path string) (io.WriteCloser, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// OS returns the real-filesystem implementation of FS.
func OS() FS { return osFS{} }

// MemFS returns an empty in-memory FS: a map from path to contents that
// lives as long as the value. Directories are implicit, so MkdirAll
// always succeeds.
func MemFS() FS { return &memFS{files: map[string][]byte{}} }

type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func (m *memFS) MkdirAll(string) error { return nil }

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: path, Err: fs.ErrNotExist}
	}
	return bytes.Clone(b), nil
}

func (m *memFS) WriteFile(path string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = bytes.Clone(data)
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldpath]
	if !ok {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = b
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) Chtimes(path string, _ time.Time) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return &fs.PathError{Op: "chtimes", Path: path, Err: fs.ErrNotExist}
	}
	return nil
}

func (m *memFS) OpenAppend(path string) (io.WriteCloser, error) {
	return memAppender{m: m, path: path}, nil
}

// memAppender appends each Write to its file under the FS's lock, so a
// reader sees every write whole or not at all.
type memAppender struct {
	m    *memFS
	path string
}

func (a memAppender) Write(p []byte) (int, error) {
	a.m.mu.Lock()
	defer a.m.mu.Unlock()
	a.m.files[a.path] = append(a.m.files[a.path], p...)
	return len(p), nil
}

func (memAppender) Close() error { return nil }
