// Package events is the push-based structured event plane of the
// observability stack: a nil-safe, bounded, lock-cheap bus emitting
// sequence-numbered events for run lifecycle, engine job lifecycle,
// fault-plan windows, fidelity verdicts, and bench regressions.
//
// Where the metrics registry answers "how much so far" by polling, the
// bus answers "what just happened" by pushing: every Emit assigns the
// next sequence number, appends the event to a bounded ring, wakes the
// readers waiting for it (the SSE /events routes), and appends one
// NDJSON line to the optional sink (-events-out). The ring is the one
// copy of the stream: a reader keeps only a cursor, the sequence
// number of the last event it took, and reads what the ring holds
// after it (Since). The hifi-serve sweep daemon streams its jobs
// through the same bus; cmd/hifi-watch is its first consumer.
//
// Three contracts, mirroring the rest of internal/telemetry:
//
//   - Nil-safe and free when detached: every method on a nil *Bus is a
//     no-op, and the nil Emit path performs zero allocations (guarded
//     by an allocs/op test and the events-emit bench case).
//   - Bounded: the ring holds the last RingCap events, and it grows to
//     that cap only as events arrive. Emit never waits for a reader; a
//     reader more than the ring behind resumes at the oldest retained
//     event, and the jump in sequence numbers shows the gap.
//   - Deterministic payloads: an Event separates identity (Type, Name,
//     Detail, N, V — reproducible for a seeded sweep at any worker
//     count) from timing (Seq, TMS, MS, Worker — wall-clock and
//     scheduling facts). Canonical() renders only the identity, which
//     is what the golden event-log test compares across -jobs settings.
//
// See docs/events.md for the hifi_events_v1 schema and the SSE
// protocol.
package events

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"racetrack/hifi/internal/jsonenc"
)

// SchemaV1 identifies the event stream layout, stamped into the NDJSON
// header line and the SSE handshake comment.
const SchemaV1 = "hifi_events_v1"

// Type names one event kind. The dotted families group related events
// for subscribers that filter ("job.*" is the engine lifecycle).
type Type string

const (
	// Run lifecycle, emitted by the CLI plumbing (internal/cliutil) and
	// the memsim phase boundaries.
	RunStart  Type = "run.start"  // Name: tool
	RunPhase  Type = "run.phase"  // Name: phase ("fig14", "memsim:ferret/measure")
	RunFinish Type = "run.finish" // MS: run wall time

	// Engine job lifecycle (internal/engine). Name is the job label.
	JobQueued   Type = "job.queued"    // N: batch size the job arrived in
	JobStarted  Type = "job.started"   // Worker: pool slot
	JobFinished Type = "job.finished"  // Worker, MS: wall ms, N: 1 (a job runs once)
	JobCacheHit Type = "job.cache_hit" // served from the result cache
	JobPanic    Type = "job.panic"     // Detail: first line of the panic value
	JobFailed   Type = "job.failed"    // Detail: the job's error

	// Device fault-plan windows (internal/faults): a window opens when
	// the composed modulation leaves identity and closes when it
	// returns. Name scopes the run ("memsim:ferret"), N is the shift
	// operation index on the device's own clock.
	FaultOpen  Type = "fault.open" // V: rate factor at opening
	FaultClose Type = "fault.close"

	// Fidelity verdicts (internal/fidelity): one per evaluated anchor.
	FidelityVerdict Type = "fidelity.verdict" // Name: anchor ID, Detail: status, V: measured

	// Sweep-daemon job lifecycle (internal/serve, cmd/hifi-serve). Name
	// is the serve job ID. On the daemon's global bus these narrate all
	// tenants; on a job's own bus the serve.job.* terminal event is the
	// last event of the stream, which is how a per-job SSE client knows
	// the stream is complete (see docs/serve.md).
	ServeJobAccepted Type = "serve.job.accepted" // Detail: spec fingerprint
	ServeJobDeduped  Type = "serve.job.deduped"  // Detail: spec fingerprint (a submission coalesced onto a live job)
	ServeJobRejected Type = "serve.job.rejected" // Detail: "queue" | "quota" | "draining"
	ServeJobStarted  Type = "serve.job.started"
	ServeJobFinished Type = "serve.job.finished" // MS: job wall time, N: experiments run
	ServeJobFailed   Type = "serve.job.failed"   // Detail: the error
	ServeJobCanceled Type = "serve.job.canceled" // Detail: "client" | "drain"
	// ServeJobRecovered narrates restart recovery from the crash-safe
	// job index: Detail is "restored" (a completed job whose status is
	// queryable again) or "requeued" (a job that was queued or running
	// when the previous process died and will run again).
	ServeJobRecovered Type = "serve.job.recovered" // Detail: "restored" | "requeued"

	// Bench regressions (cmd/hifi-bench -compare): one per breached gate.
	BenchRegression Type = "bench.regression" // Name: benchmark, Detail: reason, V: ratio
)

// Event is one structured occurrence. The zero value of every optional
// field is omitted from the JSON, so payloads stay small and the
// canonical form is stable.
type Event struct {
	// Seq is the bus-assigned sequence number: strictly increasing,
	// starting at 1, unique across the whole run. It doubles as the SSE
	// event id, so Last-Event-ID replay is exact.
	Seq uint64 `json:"seq"`
	// TMS is the emit wall-clock time in Unix milliseconds.
	TMS int64 `json:"t_ms"`

	Type Type `json:"type"`
	// Name identifies the subject: job label, phase name, anchor ID,
	// benchmark name, fault scope.
	Name string `json:"name,omitempty"`
	// Detail carries free-text context: an error, a verdict status.
	Detail string `json:"detail,omitempty"`
	// TraceID correlates the event with the request that caused it: the
	// 32-hex-char W3C trace ID minted or ingested at the hifi-serve HTTP
	// layer (internal/telemetry/tracectx). Empty outside a served
	// request. Events emitted without one inherit the bus's default
	// (SetTraceID) — how a serve job's entire stream gets stamped.
	TraceID string `json:"trace_id,omitempty"`
	// Worker is the engine pool slot (job.started / job.finished).
	Worker int `json:"worker,omitempty"`
	// N is a small integer fact: batch size, operation index, executions.
	N int64 `json:"n,omitempty"`
	// MS is a duration in milliseconds (job wall time, run wall time).
	MS int64 `json:"ms,omitempty"`
	// V is a float fact: a measured value, a ratio, a rate factor.
	V float64 `json:"v,omitempty"`
}

// appendJSON appends e as one compact JSON object, byte for byte what
// json.Marshal(e) writes: the fields in declaration order, a zero
// optional field left out, encoding/json's string escapes and float
// format. A NaN or infinite V fails with json.Marshal's error. The SSE
// frame and the NDJSON line are both built on it, without reflection
// or an allocation of their own.
func appendJSON(b []byte, e Event) ([]byte, error) {
	b = strconv.AppendUint(append(b, `{"seq":`...), e.Seq, 10)
	b = strconv.AppendInt(append(b, `,"t_ms":`...), e.TMS, 10)
	b = jsonenc.String(append(b, `,"type":`...), string(e.Type))
	if e.Name != "" {
		b = jsonenc.String(append(b, `,"name":`...), e.Name)
	}
	if e.Detail != "" {
		b = jsonenc.String(append(b, `,"detail":`...), e.Detail)
	}
	if e.TraceID != "" {
		b = jsonenc.String(append(b, `,"trace_id":`...), e.TraceID)
	}
	if e.Worker != 0 {
		b = strconv.AppendInt(append(b, `,"worker":`...), int64(e.Worker), 10)
	}
	if e.N != 0 {
		b = strconv.AppendInt(append(b, `,"n":`...), e.N, 10)
	}
	if e.MS != 0 {
		b = strconv.AppendInt(append(b, `,"ms":`...), e.MS, 10)
	}
	if e.V != 0 {
		var err error
		if b, err = jsonenc.Float(append(b, `,"v":`...), e.V); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// canonical is the deterministic projection of an Event: identity
// fields only, no sequence numbers, timestamps, durations, or worker
// slots — the parts of a seeded sweep that are byte-identical at any
// -jobs setting or cache temperature.
type canonical struct {
	Type    Type    `json:"type"`
	Name    string  `json:"name,omitempty"`
	Detail  string  `json:"detail,omitempty"`
	TraceID string  `json:"trace_id,omitempty"`
	N       int64   `json:"n,omitempty"`
	V       float64 `json:"v,omitempty"`
}

// Canonical renders the event's deterministic identity as compact JSON.
// The golden event-log test sorts these lines and compares runs; see
// docs/events.md ("determinism").
func (e Event) Canonical() string {
	b, err := json.Marshal(canonical{e.Type, e.Name, e.Detail, e.TraceID, e.N, e.V})
	if err != nil {
		// Event is plain data; a marshal failure is a programming error.
		panic(fmt.Sprintf("events: Canonical: %v", err))
	}
	return string(b)
}

// DefaultRingCap is the most events the replay ring holds when New is
// given no cap: enough for every event of a scaled CI sweep and several
// minutes of a full one, at 112 bytes an event 448 KiB once full.
const DefaultRingCap = 4096

// initialRing is the ring slots a bus starts with; a full ring doubles
// until it reaches its cap, so a bus costs about what it emitted.
const initialRing = 64

// Bus is the event stream of a process or a served job. The CLIs build
// one in cliutil.Obs when -events-out or -pprof asks for an event
// surface, and thread it through the engine, memsim, and the fault
// plane. A nil *Bus is the detached state — every method is a nil-safe
// no-op and Emit costs one branch and zero allocations.
type Bus struct {
	mu   sync.Mutex
	seq  uint64
	ring []Event // circular buffer, grown by doubling up to max
	max  int     // ring capacity cap
	head int     // next write position
	n    int     // live events in ring

	// wake, when non-nil, is closed by the next Emit. Since arms it, so
	// every reader that found nothing new waits on the same channel.
	wake chan struct{}

	sink    io.Writer
	sinkErr error  // first sink write failure; later writes are skipped
	line    []byte // the sink's line buffer, reused by every Emit

	// defaultTrace, when set, stamps every emitted event that carries no
	// TraceID of its own. A per-job serve bus sets it once at admission
	// so the whole engine event stream inherits the request's trace ID.
	defaultTrace string
}

// New builds a bus whose ring holds at most ringCap events (<= 0 means
// DefaultRingCap). The ring starts small and grows as events arrive.
func New(ringCap int) *Bus {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Bus{
		ring: make([]Event, min(initialRing, ringCap)),
		max:  ringCap,
	}
}

// AttachSink routes every subsequent event to w as one NDJSON line.
// The caller owns w's lifetime (buffering, flush, close); cliutil
// flushes and closes it at Finish. The first write error detaches the
// sink logically — later events skip it — and is returned by SinkErr.
func (b *Bus) AttachSink(w io.Writer) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.sink = w
	b.sinkErr = nil
	b.mu.Unlock()
}

// SetTraceID sets the bus's default trace ID: every subsequently
// emitted event that carries no TraceID of its own is stamped with it.
// hifi-serve calls this on each job's private bus at admission, which
// is how engine events — emitted by code that knows nothing about
// traces — end up correlated with the HTTP request that queued the
// job. Nil-safe.
func (b *Bus) SetTraceID(id string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.defaultTrace = id
	b.mu.Unlock()
}

// SinkErr returns the first NDJSON sink write failure, or nil.
func (b *Bus) SinkErr() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sinkErr
}

// Seq returns the high-water sequence number: how many events have been
// emitted over the bus's lifetime. Nil-safe (0).
func (b *Bus) Seq() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// Emit stamps the event with the next sequence number and the current
// wall clock, stores it in the ring, appends it to the NDJSON sink, and
// wakes every reader waiting in Since. It never waits for a reader.
// Safe for concurrent use; a nil bus is a free no-op.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	e.Seq = b.seq
	e.TMS = time.Now().UnixMilli()
	if e.TraceID == "" {
		e.TraceID = b.defaultTrace
	}

	if b.n == len(b.ring) && b.n < b.max {
		// Below its cap the ring has never wrapped: its events run in
		// order from index 0.
		grown := make([]Event, min(2*b.n, b.max))
		copy(grown, b.ring)
		b.ring = grown
		b.head = b.n
	}
	b.ring[b.head] = e
	b.head = (b.head + 1) % len(b.ring)
	if b.n < len(b.ring) {
		b.n++
	}

	if b.sink != nil && b.sinkErr == nil {
		if err := b.writeNDJSON(e); err != nil {
			b.sinkErr = err
		}
	}

	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}

// Since appends to buf the retained events with Seq > afterSeq, oldest
// first, and returns it with a channel that the next Emit closes. The
// read and the arming of that channel happen under one lock, so every
// later event either is in the returned slice or closes the channel: a
// reader that loops on Since with the last Seq it took sees each event
// once, in order. Events older than the ring are gone; a reader more
// than the ring behind gets the oldest retained events, and the jump
// from afterSeq+1 to the first returned Seq shows the gap. A nil bus
// returns buf and a nil channel, which never fires.
func (b *Bus) Since(afterSeq uint64, buf []Event) ([]Event, <-chan struct{}) {
	if b == nil {
		return buf, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if afterSeq < b.seq {
		// The ring holds seq-n+1 .. seq in order, ending just before
		// head: the events after afterSeq are its last k slots.
		k := int(min(b.seq-afterSeq, uint64(b.n)))
		if start := b.head - k; start < 0 {
			buf = append(buf, b.ring[len(b.ring)+start:]...)
			buf = append(buf, b.ring[:b.head]...)
		} else {
			buf = append(buf, b.ring[start:b.head]...)
		}
	}
	if b.wake == nil {
		b.wake = make(chan struct{})
	}
	return buf, b.wake
}
