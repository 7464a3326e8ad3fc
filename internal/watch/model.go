// Package watch aggregates the structured event stream
// (internal/telemetry/events, schema hifi_events_v1) into a live
// dashboard model and renders it as text. cmd/hifi-watch drives it from
// either a running process's SSE /events route or an NDJSON event log
// on disk; the model itself is source-agnostic — feed it events in
// sequence order and ask for a frame.
package watch

import (
	"fmt"
	"sort"
	"time"

	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/slo"
)

// WorkerState tracks one engine pool slot.
type WorkerState struct {
	Done int    // jobs finished on this slot
	Busy string // label of the in-flight job, "" when idle
	// BusysinceMS is the TMS of the job.started event for the in-flight
	// job, 0 when idle.
	BusySinceMS int64
}

// FaultWindow is one currently-open fault-plan window.
type FaultWindow struct {
	Scope      string  // event Name, e.g. "memsim:ferret"
	OpenedAtOp int64   // shift-operation index on the device clock
	RateFactor float64 // composed modulation at opening
}

// Regression is one bench.regression event.
type Regression struct {
	Name   string
	Detail string
	Ratio  float64
}

// Model folds events into the aggregate state the dashboard renders.
// Not safe for concurrent use; callers guard Apply/Render with their
// own lock (the SSE path applies from one goroutine and renders from
// another).
type Model struct {
	Tool  string // run.start Name, or the NDJSON header's tool
	Phase string // most recent run.phase Name

	LastSeq  uint64 // highest sequence number applied
	Events   int    // events applied
	FirstTMS int64  // TMS of the first event (run clock origin)
	LastTMS  int64  // TMS of the latest event
	Finished bool   // run.finish seen
	RunMS    int64  // run.finish wall time

	// Serve-job attachment (a hifi-serve per-job stream or poll).
	JobID    string // serve.job.* Name
	JobState string // queued/running/done/failed/canceled
	JobNote  string // failure text or cancel reason from the terminal event
	Polling  bool   // fell back to status polling after an SSE replay gap

	// Engine job lifecycle. Queued counts job.queued events and is the
	// sweep's job total: every job is announced exactly once, up front,
	// even across multiple engine batches.
	Queued       int
	Started      int
	Done         int // job.finished
	CacheHits    int
	Panics       int
	Failed       int
	ExecMSTotal  int64 // summed job.finished MS, for the ETA's mean
	WorkerStates map[int]*WorkerState

	// Fault windows keyed by scope; only open windows are held.
	Faults map[string]FaultWindow

	// Fidelity verdict counts keyed by Detail ("ok", "warn", "fail"...).
	Verdicts map[string]int

	Regressions []Regression

	// SLO is the daemon's latest burn-rate report, polled from GET /slo
	// in the -server client mode and when watching a daemon /events URL;
	// nil when the source has no SLO plane (a file, a per-run stream).
	SLO *slo.Report
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{
		WorkerStates: make(map[int]*WorkerState),
		Faults:       make(map[string]FaultWindow),
		Verdicts:     make(map[string]int),
	}
}

// SetTool records the stream's producing tool when the source knows it
// out of band (the NDJSON header); run.start overrides it.
func (m *Model) SetTool(tool string) {
	if tool != "" {
		m.Tool = tool
	}
}

// Apply folds one event into the model.
func (m *Model) Apply(e events.Event) {
	m.Events++
	if e.Seq > m.LastSeq {
		m.LastSeq = e.Seq
	}
	if m.FirstTMS == 0 || (e.TMS != 0 && e.TMS < m.FirstTMS) {
		m.FirstTMS = e.TMS
	}
	if e.TMS > m.LastTMS {
		m.LastTMS = e.TMS
	}

	switch e.Type {
	case events.RunStart:
		m.SetTool(e.Name)
	case events.RunPhase:
		m.Phase = e.Name
	case events.RunFinish:
		m.Finished = true
		m.RunMS = e.MS

	case events.ServeJobAccepted:
		m.setJob(e.Name, "queued", "")
	case events.ServeJobStarted:
		m.setJob(e.Name, "running", "")
	case events.ServeJobFinished:
		m.setJob(e.Name, "done", "")
		m.Finished = true
		m.RunMS = e.MS
	case events.ServeJobFailed:
		m.setJob(e.Name, "failed", e.Detail)
		m.Finished = true
		m.RunMS = e.MS
	case events.ServeJobCanceled:
		m.setJob(e.Name, "canceled", e.Detail)
		m.Finished = true
		m.RunMS = e.MS

	case events.JobQueued:
		m.Queued++
	case events.JobStarted:
		m.Started++
		w := m.worker(e.Worker)
		w.Busy = e.Name
		w.BusySinceMS = e.TMS
	case events.JobFinished:
		m.Done++
		m.ExecMSTotal += e.MS
		w := m.worker(e.Worker)
		w.Done++
		w.Busy = ""
		w.BusySinceMS = 0
	case events.JobCacheHit:
		m.CacheHits++
	case events.JobPanic:
		m.Panics++
	case events.JobFailed:
		m.Failed++

	case events.FaultOpen:
		m.Faults[e.Name] = FaultWindow{Scope: e.Name, OpenedAtOp: e.N, RateFactor: e.V}
	case events.FaultClose:
		delete(m.Faults, e.Name)

	case events.FidelityVerdict:
		m.Verdicts[e.Detail]++

	case events.BenchRegression:
		m.Regressions = append(m.Regressions, Regression{Name: e.Name, Detail: e.Detail, Ratio: e.V})
	}
}

// setJob records the serve-job lifecycle position.
func (m *Model) setJob(id, state, note string) {
	if id != "" {
		m.JobID = id
	}
	m.JobState = state
	m.JobNote = note
}

func (m *Model) worker(slot int) *WorkerState {
	w := m.WorkerStates[slot]
	if w == nil {
		w = &WorkerState{}
		m.WorkerStates[slot] = w
	}
	return w
}

// Completed is the number of jobs that reached a terminal state.
func (m *Model) Completed() int { return m.Done + m.CacheHits + m.Failed }

// CacheHitRate is cache hits over completed jobs, 0 before any
// completion.
func (m *Model) CacheHitRate() float64 {
	if c := m.Completed(); c > 0 {
		return float64(m.CacheHits) / float64(c)
	}
	return 0
}

// InFlight is the number of workers currently executing a job.
func (m *Model) InFlight() int {
	n := 0
	for _, w := range m.WorkerStates {
		if w.Busy != "" {
			n++
		}
	}
	return n
}

// Elapsed is the stream's own wall-clock span, first event to latest.
func (m *Model) Elapsed() time.Duration {
	if m.FirstTMS == 0 || m.LastTMS < m.FirstTMS {
		return 0
	}
	return time.Duration(m.LastTMS-m.FirstTMS) * time.Millisecond
}

// ETA estimates time to drain the remaining jobs: mean executed-job
// wall time × remaining ÷ worker count. Zero when unknowable (no
// finished job yet, no total yet, or the run is already done).
func (m *Model) ETA() time.Duration {
	remaining := m.Queued - m.Completed()
	if m.Finished || m.Done == 0 || m.Queued == 0 || remaining <= 0 {
		return 0
	}
	workers := len(m.WorkerStates)
	if workers == 0 {
		workers = 1
	}
	mean := float64(m.ExecMSTotal) / float64(m.Done)
	return time.Duration(mean*float64(remaining)/float64(workers)) * time.Millisecond
}

// workerSlots returns the known pool slots in order.
func (m *Model) workerSlots() []int {
	slots := make([]int, 0, len(m.WorkerStates))
	for s := range m.WorkerStates {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	return slots
}

// verdictLine renders the fidelity counts in a stable order.
func (m *Model) verdictLine() string {
	keys := make([]string, 0, len(m.Verdicts))
	for k := range m.Verdicts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += "  "
		}
		s += fmt.Sprintf("%s=%d", k, m.Verdicts[k])
	}
	return s
}
