package engine

// The engine's cache objects and hifi-serve's job index go through the
// narrow FS interface instead of the os package directly, so the fault
// tests in engine/faultfs can interpose torn writes, read errors,
// corruption, and stalls without touching the real filesystem code
// paths. A cache on disk uses OS(), the trivial passthrough; a CLI run
// without a cache directory keeps its cache in MemFS().

import (
	"bytes"
	"errors"
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
	// WriteFileExcl creates path exclusively (O_CREATE|O_EXCL) and
	// writes data; an existing file fails with an error matching
	// fs.ErrExist. The cache uses it to claim temp-file names, so two
	// processes sharing a cache directory can never interleave writes
	// into the same temp file.
	WriteFileExcl(path string, data []byte) error
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// Chtimes sets path's access and modification times. The cache uses
	// it to touch objects on read, so eviction under a size budget is
	// access-ordered rather than write-ordered.
	Chtimes(path string, t time.Time) error
	// OpenAppend opens path for appending, creating it if needed.
	OpenAppend(path string) (io.WriteCloser, error)
}

type osFS struct{}

func (osFS) MkdirAll(dir string) error                { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadFile(path string) ([]byte, error)     { return os.ReadFile(path) }
func (osFS) WriteFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func (osFS) WriteFileExcl(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, werr := f.Write(data); werr != nil {
		_ = f.Close()
		return werr
	}
	return f.Close()
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
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
// always succeeds; OpenAppend is unsupported, since only the job index
// appends and it lives on disk.
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

func (m *memFS) WriteFileExcl(path string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return &fs.PathError{Op: "open", Path: path, Err: fs.ErrExist}
	}
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
	return nil, &fs.PathError{Op: "open", Path: path, Err: errors.ErrUnsupported}
}
