// Package faultfs is a test-only engine.FS wrapper that injects
// filesystem failures — read errors, bit rot, torn writes and appends,
// and a fully read-only mode — on a deterministic schedule, so the
// engine's detect/quarantine/recompute and cache-less degradation paths
// can be exercised under -race without a real failing disk. Production
// code never imports this package.
package faultfs

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"sync/atomic"
	"time"

	"racetrack/hifi/internal/engine"
)

// Options selects which faults fire and how often. Every "EveryNth"
// schedule is deterministic: the Nth, 2Nth, ... call of that kind
// fails (0 disables the fault).
type Options struct {
	// FailReadEveryNth makes every Nth ReadFile return a synthetic EIO.
	FailReadEveryNth int
	// CorruptReadEveryNth makes every Nth (successful) ReadFile flip the
	// last byte of every line in the returned content — bit rot without
	// touching the disk. Every line is hit, so a cache bucket read is
	// damaged whichever of its records the reader looks up.
	CorruptReadEveryNth int
	// TornWriteEveryNth makes every Nth write — a WriteFile, or a Write
	// on an OpenAppend writer (a cache record or a job-index line) —
	// persist only the first half of the data and then report an error,
	// like a crash mid-write.
	TornWriteEveryNth int
	// ReadOnly fails every mutation (MkdirAll, WriteFile, Rename,
	// Remove, Chtimes, OpenAppend) with fs.ErrPermission — the
	// unwritable cache directory the engine must degrade around.
	ReadOnly bool
}

// Counts reports how many operations ran and how many faults fired.
type Counts struct {
	Reads, Writes        uint64
	EIO, Corrupted, Torn uint64
}

// FS wraps a base engine.FS with fault injection. Safe for concurrent
// use (all schedule state is atomic), matching the engine's worker
// pool.
type FS struct {
	base engine.FS
	opts Options

	reads, writes        atomic.Uint64
	eio, corrupted, torn atomic.Uint64
}

// New wraps base (engine.OS() when nil) with the given fault schedule.
func New(base engine.FS, opts Options) *FS {
	if base == nil {
		base = engine.OS()
	}
	return &FS{base: base, opts: opts}
}

// Counts snapshots the operation and fault counters.
func (f *FS) Counts() Counts {
	return Counts{
		Reads:     f.reads.Load(),
		Writes:    f.writes.Load(),
		EIO:       f.eio.Load(),
		Corrupted: f.corrupted.Load(),
		Torn:      f.torn.Load(),
	}
}

// nth reports whether this call (1-based counter n) is on the every-Nth
// schedule.
func nth(n uint64, every int) bool {
	return every > 0 && n%uint64(every) == 0
}

func (f *FS) MkdirAll(dir string) error {
	if f.opts.ReadOnly {
		return fmt.Errorf("faultfs: mkdir %s: %w", dir, fs.ErrPermission)
	}
	return f.base.MkdirAll(dir)
}

func (f *FS) ReadFile(path string) ([]byte, error) {
	n := f.reads.Add(1)
	if nth(n, f.opts.FailReadEveryNth) {
		f.eio.Add(1)
		return nil, fmt.Errorf("faultfs: read %s: injected I/O error", path)
	}
	b, err := f.base.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if nth(n, f.opts.CorruptReadEveryNth) && len(b) > 0 {
		f.corrupted.Add(1)
		b = bytes.Clone(b) // never mutate the base's buffer
		for i := range b {
			if b[i] != '\n' && (i+1 == len(b) || b[i+1] == '\n') {
				b[i] ^= 0x40
			}
		}
	}
	return b, nil
}

func (f *FS) WriteFile(path string, data []byte) error {
	if f.opts.ReadOnly {
		return fmt.Errorf("faultfs: write %s: %w", path, fs.ErrPermission)
	}
	if f.writeFault() {
		f.base.WriteFile(path, data[:len(data)/2])
		return fmt.Errorf("faultfs: write %s: injected torn write", path)
	}
	return f.base.WriteFile(path, data)
}

// writeFault runs the write schedule for one write, a WriteFile or an
// append: it reports whether the write is to be torn.
func (f *FS) writeFault() (torn bool) {
	if nth(f.writes.Add(1), f.opts.TornWriteEveryNth) {
		f.torn.Add(1)
		return true
	}
	return false
}

func (f *FS) Rename(oldpath, newpath string) error {
	if f.opts.ReadOnly {
		return fmt.Errorf("faultfs: rename %s: %w", oldpath, fs.ErrPermission)
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FS) Remove(path string) error {
	if f.opts.ReadOnly {
		return fmt.Errorf("faultfs: remove %s: %w", path, fs.ErrPermission)
	}
	return f.base.Remove(path)
}

func (f *FS) Chtimes(path string, t time.Time) error {
	if f.opts.ReadOnly {
		return fmt.Errorf("faultfs: chtimes %s: %w", path, fs.ErrPermission)
	}
	return f.base.Chtimes(path, t)
}

func (f *FS) OpenAppend(path string) (io.WriteCloser, error) {
	if f.opts.ReadOnly {
		return nil, fmt.Errorf("faultfs: append %s: %w", path, fs.ErrPermission)
	}
	w, err := f.base.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &tornWriter{f: f, w: w}, nil
}

// tornWriter applies the write schedule to appends, cache records and
// job-index lines alike: a scheduled fault writes only half the record
// (with no trailing newline) and reports an error — exactly the damage
// a power cut leaves in an append-only file.
type tornWriter struct {
	f *FS
	w io.WriteCloser
}

func (t *tornWriter) Write(p []byte) (int, error) {
	if t.f.writeFault() {
		half := len(p) / 2
		t.w.Write(p[:half])
		return half, fmt.Errorf("faultfs: append: injected torn write")
	}
	return t.w.Write(p)
}

func (t *tornWriter) Close() error { return t.w.Close() }
