package engine

// The sweep journal: an append-only JSONL file, one line per completed
// job, flushed entry by entry. A sweep interrupted mid-run leaves a
// journal whose entries name exactly the jobs that finished; reopening
// it with resume=true lets the engine skip those jobs (provided their
// payloads are still in the cache). Loading follows ReplayLines, the
// damage rule hifi-serve's job index shares: a torn final line is
// ignored, and a damaged record anywhere else is skipped, logged, and
// counted in Skipped() and hifi_engine_journal_skipped_total — the jobs
// it named are simply re-resolved from the cache or re-executed.
//
// This journal tracks *job-level* sweep progress. It is deliberately
// separate from the device-level checkpointing in the repository root's
// checkpoint.go, which snapshots the logical contents of one simulated
// Memory; see docs/engine.md for why the two layers stay apart.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"

	"racetrack/hifi/internal/telemetry/log"
)

// Entry is one completed job.
type Entry struct {
	Seq      int    `json:"seq"`
	Key      string `json:"key"`
	Label    string `json:"label,omitempty"`
	Hash     string `json:"hash"`
	Attempts int    `json:"attempts"` // 0 = served from cache
	DurMS    int64  `json:"dur_ms"`
	// Resources is the executed job's measured cost (absent for cache
	// hits, which cost nothing). Older journals without the field load
	// fine; resume ignores it.
	Resources *JobResources `json:"resources,omitempty"`
}

// Journal is the on-disk completion log. Safe for concurrent Append
// from the worker pool.
type Journal struct {
	mu      sync.Mutex
	path    string
	fsys    FS
	w       io.WriteCloser
	seq     int
	skipped int
	done    map[string]Entry // by hash
}

// OpenJournal opens the journal at path. With resume=true existing
// entries are loaded (and later Appends continue the sequence); without
// it the file is truncated — a fresh sweep starts a fresh journal.
func OpenJournal(path string, resume bool) (*Journal, error) {
	return OpenJournalFS(path, resume, OS())
}

// OpenJournalFS is OpenJournal over an explicit filesystem; the fault
// tests use it to interpose faultfs.
func OpenJournalFS(path string, resume bool, fsys FS) (*Journal, error) {
	j := &Journal{path: path, fsys: fsys, done: map[string]Entry{}}
	if resume {
		if err := j.load(); err != nil {
			return nil, err
		}
	}
	w, err := fsys.OpenAppend(path, !resume)
	if err != nil {
		return nil, fmt.Errorf("engine: open journal: %w", err)
	}
	j.w = w
	return j, nil
}

// load reads existing entries, ignoring a torn final line and skipping
// (with a log line and the skip counter) any other malformed record.
func (j *Journal) load() error {
	content, err := j.fsys.ReadFile(j.path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("engine: load journal: %w", err)
	}
	j.skipped = ReplayLines("engine: journal "+j.path, content, func(line []byte) error {
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		if e.Hash == "" {
			return errors.New("record has no hash")
		}
		j.done[e.Hash] = e
		j.seq = max(j.seq, e.Seq)
		return nil
	})
	return nil
}

// ReplayLines feeds each line of an append-only NDJSON log to apply, in
// order, and returns how many lines it skipped. Only a line terminated
// by '\n' was fully written, so an unterminated final line that apply
// rejects is the torn tail of a killed append and is dropped silently.
// Any other rejected line means the file was damaged after the fact: it
// is logged under name, counted, and skipped, and replay carries on
// with the next line. Empty lines are ignored.
func ReplayLines(name string, content []byte, apply func(line []byte) error) (skipped int) {
	lines := bytes.Split(content, []byte{'\n'})
	// Split leaves whatever follows the final '\n' as the last element:
	// empty for a clean log, the torn tail otherwise.
	last := len(lines) - 1
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		if err := apply(line); err != nil && i < last {
			skipped++
			log.Errorf("%s: skipping corrupt record at line %d: %v", name, i+1, err)
		}
	}
	return skipped
}

// Len returns the number of distinct completed jobs loaded or appended.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Skipped returns how many corrupt records load discarded.
func (j *Journal) Skipped() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.skipped
}

// Done reports whether hash is recorded as completed. Nil-safe so the
// engine can consult an absent journal.
func (j *Journal) Done(hash string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.done[hash]
	return ok
}

// Append records one completion and flushes it to disk.
func (j *Journal) Append(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if _, err := j.w.Write(append(b, '\n')); err != nil {
		return err
	}
	j.done[e.Hash] = e
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j == nil || j.w == nil {
		return nil
	}
	return j.w.Close()
}
