package serve

// Job state: one accepted sweep, from queued through its terminal
// state, with its own event bus (the per-job SSE stream) and its own
// engine (sharing the server-wide cache and metrics registry). State
// transitions are guarded by the job's mutex; the server is the only
// writer, handlers and the poll route are concurrent readers.

import (
	"context"
	"sync"
	"time"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/tracectx"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Job is one accepted sweep.
type Job struct {
	// ID is the server-assigned handle ("j0001"); Fingerprint is the
	// normalized spec's content address (the dedup key).
	ID          string
	Fingerprint string
	// TraceID is the 32-hex W3C trace ID of the submission that created
	// the job: the correlation key across the access log, the event
	// streams (the job bus stamps it on every event), the span export,
	// and the job index. Unlike Fingerprint it is per-request, not
	// per-content — a deduped submission keeps the original job's trace.
	TraceID string
	// Spec is the normalized spec the job runs.
	Spec Spec

	// Bus is the job's own event stream: serve.job.* lifecycle,
	// run.phase per experiment, and the engine/memsim/fault events of
	// the sweep. GET /v1/jobs/{id}/events serves it over SSE; the
	// serve.job.* terminal event is always the stream's last event.
	Bus *events.Bus

	ctx    context.Context
	cancel context.CancelCauseFunc
	// done closes when the job is terminal AND its terminal event is on
	// the job bus (finalize calls finish after the Emit), so a reader
	// released by Done() finds that event in the ring.
	done chan struct{}

	mu       sync.Mutex
	state    State
	detail   string // error text (failed) or cancel reason (canceled)
	created  time.Time
	started  time.Time
	finished time.Time
	eng      *engine.Engine // live while running; snapshot survives in engStatus
	engFinal *engine.Status
	tables   map[string]experiments.Table
	text     string // rendered tables, byte-identical to the CLI's stdout
	subs     int    // submissions coalesced onto this job (1 = no dedup)
	// restored marks a job rebuilt from the crash-safe index rather than
	// run by this process. A restored done job holds no tables until a
	// results read re-materializes them through the shared cache.
	restored bool

	// rematMu single-flights re-materialization of a restored job's
	// tables; it is never held together with j.mu.
	rematMu sync.Mutex
}

func newJob(id, fingerprint string, spec Spec, parent context.Context, ringCap int, tc tracectx.Context) *Job {
	// The job context carries the trace, so spans the engine opens under
	// it (telemetry.StartSpan) self-annotate with the trace ID; the bus
	// default stamps it onto every event the job's engine emits.
	ctx, cancel := context.WithCancelCause(tracectx.Into(parent, tc))
	bus := events.New(ringCap)
	bus.SetTraceID(tc.TraceID.String())
	return &Job{
		ID:          id,
		Fingerprint: fingerprint,
		TraceID:     tc.TraceID.String(),
		Spec:        spec,
		Bus:         bus,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		state:       StateQueued,
		created:     time.Now(),
		tables:      map[string]experiments.Table{},
		subs:        1,
	}
}

// newRestoredJob rebuilds a terminal job from its crash-safe index
// record. The job is immediately queryable: state, timings, and error
// text are exactly what the index recorded; the done channel starts
// closed (the terminal event predates this process, so there is nothing
// to wait for). Tables are absent until a results read re-materializes
// them through the shared cache.
func newRestoredJob(r restoredJob, ringCap int, tc tracectx.Context) *Job {
	ctx, cancel := context.WithCancelCause(tracectx.Into(context.Background(), tc))
	bus := events.New(ringCap)
	bus.SetTraceID(tc.TraceID.String())
	done := make(chan struct{})
	close(done)
	j := &Job{
		ID:          r.id,
		Fingerprint: r.fingerprint,
		TraceID:     tc.TraceID.String(),
		Spec:        r.spec,
		Bus:         bus,
		ctx:         ctx,
		cancel:      cancel,
		done:        done,
		state:       State(r.state),
		detail:      r.detail,
		created:     time.UnixMilli(r.createdTMS),
		tables:      map[string]experiments.Table{},
		subs:        1,
		restored:    true,
	}
	if r.startedTMS != 0 {
		j.started = time.UnixMilli(r.startedTMS)
	}
	if r.finishedTMS != 0 {
		j.finished = time.UnixMilli(r.finishedTMS)
	}
	return j
}

// State returns the current lifecycle position.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done returns a channel closed when the job has reached a terminal
// state and its terminal event has been emitted on the job bus.
func (j *Job) Done() <-chan struct{} { return j.done }

// finish closes done. Only the server's finalize calls it, strictly
// after emitting the terminal event, so a job's SSE stream, which ends
// at Done(), always carries that event last.
func (j *Job) finish() { close(j.done) }

// Tables returns the per-experiment tables of a completed job (nil
// until done) keyed by experiment name, plus the run order.
func (j *Job) Tables() (map[string]experiments.Table, []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, nil
	}
	out := make(map[string]experiments.Table, len(j.tables))
	for k, v := range j.tables {
		out[k] = v
	}
	return out, append([]string(nil), j.Spec.Run...)
}

// Text returns the rendered tables of a completed job — the exact bytes
// `hifi-experiments -run <keys> <flags>` prints to stdout — or "" until
// the job is done.
func (j *Job) Text() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.text
}

// markStarted moves queued → running. Returns false when the job was
// canceled while queued (the runner skips it).
func (j *Job) markStarted(eng *engine.Engine) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.eng = eng
	return true
}

// markDone finalizes a successful run. Returns false if the job was
// already terminal — the winner of the terminal transition owns the
// finalize, so exactly one terminal event is ever emitted.
func (j *Job) markDone(st engine.Status, tables map[string]experiments.Table) bool {
	text := experiments.Text(j.Spec.Run, tables, false)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = StateDone
	j.finished = time.Now()
	j.tables = tables
	j.text = text
	j.engFinal = &st
	j.eng = nil
	return true
}

// needsMaterialize reports whether a results read must first re-run the
// spec through the shared cache: the job is a restored done job whose
// tables have not been rebuilt in this process yet.
func (j *Job) needsMaterialize() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.restored && j.state == StateDone && len(j.tables) == 0
}

// setMaterialized installs re-computed tables on a restored done job
// without disturbing its recorded timings or terminal state. The engine
// status (executed == 0 when the shared cache held every result) becomes
// the job's final ledger.
func (j *Job) setMaterialized(st engine.Status, tables map[string]experiments.Table) {
	text := experiments.Text(j.Spec.Run, tables, false)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone || len(j.tables) > 0 {
		return
	}
	j.tables = tables
	j.text = text
	j.engFinal = &st
}

// indexSnapshot renders the job's current state as one self-contained
// index record — what compaction writes so a replay needs only one line
// per job.
func (j *Job) indexSnapshot() indexRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	spec := j.Spec
	r := indexRecord{
		Op:          opSnapshot,
		ID:          j.ID,
		Fingerprint: j.Fingerprint,
		TraceID:     j.TraceID,
		Spec:        &spec,
		State:       j.state,
		Detail:      j.detail,
		CreatedTMS:  j.created.UnixMilli(),
	}
	if !j.started.IsZero() {
		r.StartedTMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		r.FinishedTMS = j.finished.UnixMilli()
	}
	return r
}

// markFailed finalizes an errored run. Returns false if the job was
// already terminal.
func (j *Job) markFailed(st engine.Status, errText string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = StateFailed
	j.detail = errText
	j.finished = time.Now()
	j.engFinal = &st
	j.eng = nil
	return true
}

// markCanceled finalizes a canceled running job (st is the engine
// snapshot at unwind). Returns false if the job was already terminal.
func (j *Job) markCanceled(st *engine.Status, reason string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = StateCanceled
	j.detail = reason
	j.finished = time.Now()
	j.engFinal = st
	j.eng = nil
	return true
}

// markCanceledIfQueued finalizes a job that never started. It requires
// state == queued under j.mu — the same mutex markStarted takes — so a
// queued-cancel can never race the queued→running transition: either
// this wins and the runner's markStarted returns false, or the runner
// wins and the caller must cancel via the job's context instead.
func (j *Job) markCanceledIfQueued(reason string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateCanceled
	j.detail = reason
	j.finished = time.Now()
	j.eng = nil
	return true
}

// coalesce counts one more submission deduped onto this job. Returns
// false when the job is already terminal (the caller must start a fresh
// job so the new client gets a fresh cache-served run). On success it
// emits the job-bus deduped event while still holding j.mu: a terminal
// transition needs the same mutex and its event is emitted after, so
// the deduped event always precedes the stream's terminal event.
func (j *Job) coalesce() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.subs++
	j.Bus.Emit(events.Event{Type: events.ServeJobDeduped, Name: j.ID, Detail: j.Fingerprint})
	return true
}

// JobStatus is the wire form of a job — the GET /v1/jobs/{id} body.
type JobStatus struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Fingerprint string `json:"fingerprint"`
	// TraceID correlates the job with the access log, event streams,
	// and span export: the 32-hex trace ID of the creating submission.
	TraceID string `json:"trace_id,omitempty"`
	// Deduped is set on the submit response when this submission
	// coalesced onto an already-live job.
	Deduped bool `json:"deduped,omitempty"`
	// Subscribers counts submissions coalesced onto this job.
	Subscribers int  `json:"subscribers"`
	Spec        Spec `json:"spec"`
	// Restored marks a job rebuilt from the crash-safe index after a
	// restart rather than run by this process.
	Restored bool `json:"restored,omitempty"`

	CreatedTMS  int64 `json:"created_t_ms"`
	StartedTMS  int64 `json:"started_t_ms,omitempty"`
	FinishedTMS int64 `json:"finished_t_ms,omitempty"`
	WallMS      int64 `json:"wall_ms,omitempty"`

	// Error is the failure text (state failed) or cancel reason
	// (state canceled).
	Error string `json:"error,omitempty"`

	// Engine is the sweep's job ledger: live while running, final
	// afterwards. A resubmitted spec served entirely from the shared
	// cache shows executed == 0 here — the zero-new-computation proof.
	Engine *engine.Status `json:"engine,omitempty"`

	// EventsSeq is the job bus's high-water mark; with the replay ring
	// size it bounds what an SSE reconnect can still recover.
	EventsSeq uint64 `json:"events_seq"`
}

// Status snapshots the job's wire form.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	s := JobStatus{
		ID:          j.ID,
		State:       j.state,
		Fingerprint: j.Fingerprint,
		TraceID:     j.TraceID,
		Subscribers: j.subs,
		Spec:        j.Spec,
		Restored:    j.restored,
		CreatedTMS:  j.created.UnixMilli(),
		Error:       j.detail,
	}
	if !j.started.IsZero() {
		s.StartedTMS = j.started.UnixMilli()
	}
	if !j.finished.IsZero() {
		s.FinishedTMS = j.finished.UnixMilli()
		if !j.started.IsZero() {
			s.WallMS = j.finished.Sub(j.started).Milliseconds()
		}
	}
	eng, final := j.eng, j.engFinal
	j.mu.Unlock()

	switch {
	case final != nil:
		s.Engine = final
	case eng != nil:
		st := eng.Status()
		s.Engine = &st
	}
	s.EventsSeq = j.Bus.Seq()
	return s
}
