package serve

// The crash-safe job index: an append-only NDJSON write-ahead log
// (hifi_serve_index_v1) under the cache directory that records every
// admission, start, and terminal transition the daemon performs. It is
// the daemon's only recovery record: after a kill -9, or a SIGTERM
// drain that left jobs queued in it, a restart with -resume can
//
//   - restore every completed job's status (GET /v1/jobs/{id} keeps
//     answering across restarts; tables re-materialize lazily through
//     the shared content-addressed cache with executed=0), and
//   - re-queue every job that was queued or running when the process
//     stopped, under its original ID and trace.
//
// The file format is a schema header line, then one self-delimiting
// JSON record per line, flushed per append. Replay follows the damage
// rule of engine.ReplayLines: a torn final line is ignored silently —
// everything before it is intact by construction — and garbled middle
// records are skipped and counted in hifi_serve_index_skipped_total;
// the jobs they describe degrade to "not recovered", never to wrong
// state.
//
// All I/O goes through engine.FS so the faultfs chaos tests can
// exercise torn appends and EIO. A write failure (ENOSPC, EIO, a
// read-only disk) must never fail a submission: the index degrades to
// in-memory-only with a warn-once log, surfaces in /healthz as
// "degraded":["job-index"], and feeds the index_durability SLO. A later
// successful compaction — which rewrites the whole state from memory —
// restores durability, so a disk that recovers (an operator freeing
// space) heals the index without a restart. See docs/serve.md
// ("Restart recovery & the job index").

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/log"
)

// IndexSchemaV1 stamps the job-index WAL's header line.
const IndexSchemaV1 = "hifi_serve_index_v1"

// indexCompactEvery is the default append count between compactions: a
// long-lived daemon's index stays O(jobs), not O(transitions).
const indexCompactEvery = 4096

// Record ops. Terminal transitions use the State strings verbatim
// (done/failed/canceled) so the record reads as the job's final state.
const (
	opAdmitted = "admitted"
	opStarted  = "started"
	opRequeued = "requeued" // restart recovery re-queued an interrupted job
	opSnapshot = "snapshot" // compaction: one authoritative record per job
)

// indexRecord is one WAL line. The header line carries only Schema;
// every other line carries Op + ID and whatever the op needs. Snapshot
// records are self-contained (spec, state, all timestamps), so a
// compacted index replays without any earlier history.
type indexRecord struct {
	Schema      string `json:"schema,omitempty"`
	Op          string `json:"op,omitempty"`
	ID          string `json:"id,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	TraceID     string `json:"trace_id,omitempty"`
	Spec        *Spec  `json:"spec,omitempty"`
	State       State  `json:"state,omitempty"`
	Detail      string `json:"detail,omitempty"`
	TMS         int64  `json:"t_ms,omitempty"`
	CreatedTMS  int64  `json:"created_t_ms,omitempty"`
	StartedTMS  int64  `json:"started_t_ms,omitempty"`
	FinishedTMS int64  `json:"finished_t_ms,omitempty"`
}

// restoredJob is one job reconstructed by replay: enough to restore a
// terminal job's status, or to re-queue an interrupted one.
type restoredJob struct {
	id          string
	fingerprint string
	trace       string
	spec        Spec
	state       State
	detail      string
	createdTMS  int64
	startedTMS  int64
	finishedTMS int64
}

type indexTelemetry struct {
	records     *telemetry.Counter
	writeErrors *telemetry.Counter
	replayed    *telemetry.Counter
	skipped     *telemetry.Counter
	compactions *telemetry.Counter
}

func newIndexTelemetry(reg *telemetry.Registry) indexTelemetry {
	return indexTelemetry{
		records:     reg.Counter(telemetry.MetricServeIndexRecords, "job-index records appended to the WAL"),
		writeErrors: reg.Counter(telemetry.MetricServeIndexWriteErrors, "job-index appends that failed to reach disk"),
		replayed:    reg.Counter(telemetry.MetricServeIndexReplayed, "jobs reconstructed from the index on startup"),
		skipped:     reg.Counter(telemetry.MetricServeIndexSkipped, "corrupt or orphaned index records skipped on replay"),
		compactions: reg.Counter(telemetry.MetricServeIndexCompactions, "index compactions (WAL rewritten as one snapshot per job)"),
	}
}

// jobIndex is the WAL writer. Appends are serialized by mu; a failed
// append flips degraded (in-memory-only until a compaction succeeds).
type jobIndex struct {
	path         string
	fsys         engine.FS
	compactEvery int
	tel          indexTelemetry
	// observe feeds the index_durability SLO one outcome per append
	// attempt (nil disables).
	observe func(ok bool)

	mu       sync.Mutex
	w        io.WriteCloser
	appends  int // records since open/compaction (counted even while degraded, so compaction still triggers and can heal)
	degraded bool
	sealed   bool // test-only crash emulation: drop all further writes
}

// openIndex replays the WAL at path and opens it for appending. It
// never fails the daemon: replay errors restore nothing and an
// unopenable file starts the index degraded (in-memory-only), both with
// a log line. Restored jobs come back sorted by numeric job ID.
func openIndex(path string, fsys engine.FS, compactEvery int, tel indexTelemetry, observe func(ok bool)) (*jobIndex, []restoredJob) {
	if fsys == nil {
		fsys = engine.OS()
	}
	if compactEvery <= 0 {
		compactEvery = indexCompactEvery
	}
	ix := &jobIndex{path: path, fsys: fsys, compactEvery: compactEvery, tel: tel, observe: observe}

	var restored []restoredJob
	content, err := fsys.ReadFile(path)
	switch {
	case err == nil:
		restored = ix.replay(content)
	case isNotExist(err):
		// First boot on this cache dir: nothing to replay.
	default:
		log.Errorf("serve: job index %s unreadable: %v; starting without recovered jobs", path, err)
	}

	w, err := fsys.OpenAppend(path)
	if err != nil {
		ix.degraded = true
		ix.tel.writeErrors.Inc()
		log.Errorf("serve: job index %s unwritable: %v; continuing in-memory only (restart recovery disabled)", path, err)
		return ix, restored
	}
	ix.w = w
	if len(content) == 0 {
		ix.writeHeaderLocked()
	}
	return ix, restored
}

func isNotExist(err error) bool {
	// faultfs wraps errors with %w, so errors.Is sees through it.
	return errors.Is(err, fs.ErrNotExist)
}

// replay folds the WAL's lines into per-job state.
func (ix *jobIndex) replay(content []byte) []restoredJob {
	byID := map[string]*restoredJob{}
	var order []string
	foreign := false // a header with another schema: ignore the rest
	skip := engine.ReplayLines("serve: index "+ix.path, content, func(line []byte) error {
		if foreign {
			return nil
		}
		var rec indexRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		if rec.Schema != "" {
			if rec.Schema != IndexSchemaV1 {
				log.Errorf("serve: index %s: unknown schema %q; ignoring the rest", ix.path, rec.Schema)
				foreign = true
			}
			return nil
		}
		if rec.ID == "" {
			return errors.New("record has no job id")
		}
		r := byID[rec.ID]
		if r == nil && rec.Op != opAdmitted && rec.Op != opSnapshot {
			// An orphan (its admitted/snapshot record is gone) or an
			// unknown op.
			return fmt.Errorf("%q record for unknown job %s", rec.Op, rec.ID)
		}
		switch rec.Op {
		case opAdmitted, opSnapshot:
			if rec.Spec == nil {
				return errors.New("record has no spec")
			}
			if r == nil {
				r = &restoredJob{id: rec.ID}
				byID[rec.ID] = r
				order = append(order, rec.ID)
			}
			r.fingerprint = rec.Fingerprint
			r.trace = rec.TraceID
			r.spec = *rec.Spec
			if rec.Op == opSnapshot {
				r.state = rec.State
				r.detail = rec.Detail
				r.createdTMS = rec.CreatedTMS
				r.startedTMS = rec.StartedTMS
				r.finishedTMS = rec.FinishedTMS
			} else {
				r.state = StateQueued
				r.createdTMS = rec.TMS
			}
		case opRequeued:
			r.state = StateQueued
			r.detail = ""
			r.startedTMS, r.finishedTMS = 0, 0
		case opStarted:
			r.state = StateRunning
			r.startedTMS = rec.TMS
		case string(StateDone), string(StateFailed), string(StateCanceled):
			r.state = State(rec.Op)
			r.detail = rec.Detail
			r.finishedTMS = rec.TMS
		default:
			return fmt.Errorf("unknown op %q", rec.Op)
		}
		return nil
	})
	out := make([]restoredJob, 0, len(order))
	for _, id := range order {
		r := byID[id]
		if !r.state.Terminal() && r.state != StateQueued && r.state != StateRunning {
			skip++
			continue
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return jobIDNum(out[i].id) < jobIDNum(out[j].id) })
	ix.tel.replayed.Add(float64(len(out)))
	if skip > 0 {
		ix.tel.skipped.Add(float64(skip))
	}
	return out
}

// jobIDNum extracts the numeric part of a "j%04d" job ID (0 when the ID
// does not match — such jobs sort first but never collide with minted
// IDs, which always carry a number).
func jobIDNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j"))
	return n
}

// maxRecoveredID is the highest numeric job ID among restored jobs; the
// server continues minting above it so recovered and new jobs never
// collide in the table or the WAL.
func maxRecoveredID(restored []restoredJob) int {
	max := 0
	for _, r := range restored {
		if n := jobIDNum(r.id); n > max {
			max = n
		}
	}
	return max
}

// append writes one record to the WAL. Failures degrade the index to
// in-memory-only (warn once); they are never surfaced to the admission
// path — losing durability must not lose the submission.
func (ix *jobIndex) append(rec indexRecord) {
	if ix == nil {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.sealed {
		return
	}
	// Count the record whether or not it reaches disk: compaction
	// triggers on the same schedule either way, and a successful
	// compaction is exactly what heals a degraded index.
	ix.appends++
	if ix.degraded || ix.w == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		// Records are plain data; this is a programming error, but the
		// daemon must not die for it.
		log.Errorf("serve: index: marshal: %v", err)
		return
	}
	if _, err := ix.w.Write(append(b, '\n')); err != nil {
		ix.degraded = true
		ix.tel.writeErrors.Inc()
		if ix.observe != nil {
			ix.observe(false)
		}
		log.Errorf("serve: index %s: append failed: %v; continuing in-memory only "+
			"(restart recovery suspended until a compaction succeeds)", ix.path, err)
		return
	}
	ix.tel.records.Inc()
	if ix.observe != nil {
		ix.observe(true)
	}
}

// shouldCompact reports whether enough records accumulated since the
// last compaction. Nil-safe.
func (ix *jobIndex) shouldCompact() bool {
	if ix == nil {
		return false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.appends >= ix.compactEvery
}

// compactWith rewrites the WAL as a header plus the snapshot records
// gather returns, atomically (temp file + rename), then reopens the
// appender. gather runs under the index lock, so any state transition
// whose record has not yet been appended is already visible to it —
// the snapshot can never miss a transition, only duplicate one (the
// blocked append lands in the new file, where replay treats it as a
// no-op update). A successful compaction clears degraded: the rewrite
// re-persisted everything appends lost. Returns the error that kept the
// rewrite off disk (nil once it is renamed into place).
func (ix *jobIndex) compactWith(gather func() []indexRecord) error {
	if ix == nil {
		return nil
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.sealed {
		return nil
	}
	recs := gather()
	var buf bytes.Buffer
	hdr, _ := json.Marshal(indexRecord{Schema: IndexSchemaV1})
	buf.Write(hdr)
	buf.WriteByte('\n')
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			log.Errorf("serve: index compact: marshal %s: %v", rec.ID, err)
			continue
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	tmp := ix.path + ".compact"
	err := ix.fsys.WriteFile(tmp, buf.Bytes())
	if err == nil {
		err = ix.fsys.Rename(tmp, ix.path)
	}
	if err != nil {
		log.Errorf("serve: index compact: %v (keeping the append-only file)", err)
		_ = ix.fsys.Remove(tmp)
		ix.appends = 0 // don't retry every transition on a sick disk
		return err
	}
	if ix.w != nil {
		_ = ix.w.Close()
	}
	w, err := ix.fsys.OpenAppend(ix.path)
	if err != nil {
		// The compacted file is intact on disk; only live appends stop.
		ix.w = nil
		ix.degraded = true
		ix.tel.writeErrors.Inc()
		log.Errorf("serve: index %s: reopen after compaction: %v; continuing in-memory only", ix.path, err)
		return nil
	}
	ix.w = w
	ix.appends = 0
	if ix.degraded {
		log.Infof("serve: index %s: compaction succeeded; durability restored", ix.path)
	}
	ix.degraded = false
	ix.tel.compactions.Inc()
	return nil
}

// writeHeaderLocked stamps a fresh WAL. Caller holds no lock during
// openIndex (single-threaded); named for the invariant, not a mutex.
func (ix *jobIndex) writeHeaderLocked() {
	hdr, _ := json.Marshal(indexRecord{Schema: IndexSchemaV1})
	if _, err := ix.w.Write(append(hdr, '\n')); err != nil {
		ix.degraded = true
		ix.tel.writeErrors.Inc()
		log.Errorf("serve: index %s: header write failed: %v; continuing in-memory only", ix.path, err)
	}
}

// Degraded reports whether the index has fallen back to in-memory-only
// operation. Nil-safe (a server without a cache dir has no index and is
// not degraded — it never promised durability).
func (ix *jobIndex) Degraded() bool {
	if ix == nil {
		return false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.degraded
}

// seal emulates the process dying (tests only): every later append and
// compaction is dropped, leaving the on-disk WAL exactly as a kill -9
// would. Nil-safe.
func (ix *jobIndex) seal() {
	if ix == nil {
		return
	}
	ix.mu.Lock()
	ix.sealed = true
	ix.mu.Unlock()
}
