package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// EventKind classifies trace events emitted by the simulation stack.
type EventKind uint8

// Event kinds. The Arg fields of an Event are kind-specific; the schema
// is documented in docs/observability.md and kept stable for tooling.
const (
	// EventShift: one planned shift. Arg0=group, Arg1=signed distance,
	// Arg2=operations in the planned sequence.
	EventShift EventKind = iota + 1
	// EventEviction: an LLC eviction. Arg0=set, Arg1=way, Arg2=dirty
	// (0/1).
	EventEviction
	// EventPromoFlush: a promotion-buffer dirty eviction flushed back to
	// the array. Arg0=set, Arg1=way.
	EventPromoFlush
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventShift:
		return "shift"
	case EventEviction:
		return "eviction"
	case EventPromoFlush:
		return "promo-flush"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one fixed-size trace record. Cycle is the cycle on memsim's
// LLC timeline.
type Event struct {
	Seq   uint64    `json:"seq"`
	Cycle uint64    `json:"cycle"`
	Kind  EventKind `json:"-"`
	Arg0  int64     `json:"arg0"`
	Arg1  int64     `json:"arg1"`
	Arg2  int64     `json:"arg2"`
}

// MarshalJSON renders the kind symbolically.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Seq   uint64 `json:"seq"`
		Cycle uint64 `json:"cycle"`
		Kind  string `json:"kind"`
		Arg0  int64  `json:"arg0"`
		Arg1  int64  `json:"arg1"`
		Arg2  int64  `json:"arg2"`
	}{e.Seq, e.Cycle, e.Kind.String(), e.Arg0, e.Arg1, e.Arg2})
}

// Tracer records events into a preallocated ring buffer: the hot path
// never allocates, and once the buffer wraps the oldest events are
// overwritten (Dropped counts them). A nil *Tracer is a valid disabled
// handle — Emit on nil is a single branch and nothing else.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next uint64 // total events ever emitted
}

// NewTracer returns a tracer holding the most recent capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Emit appends one event. Safe for concurrent use; zero-alloc.
func (t *Tracer) Emit(kind EventKind, cycle uint64, arg0, arg1, arg2 int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.buf[t.next%uint64(len(t.buf))] = Event{
		Seq: t.next, Cycle: cycle, Kind: kind, Arg0: arg0, Arg1: arg1, Arg2: arg2,
	}
	t.next++
	t.mu.Unlock()
}

// Len returns how many events are currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next < uint64(len(t.buf)) {
		return int(t.next)
	}
	return len(t.buf)
}

// Dropped returns how many events were overwritten after the ring
// wrapped.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next <= uint64(len(t.buf)) {
		return 0
	}
	return t.next - uint64(len(t.buf))
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	if t.next <= n {
		out := make([]Event, t.next)
		copy(out, t.buf[:t.next])
		return out
	}
	out := make([]Event, 0, n)
	start := t.next % n
	out = append(out, t.buf[start:]...)
	out = append(out, t.buf[:start]...)
	return out
}

// WriteJSON emits the retained events as a JSON document with a small
// header recording totals and drops.
func (t *Tracer) WriteJSON(w io.Writer) error {
	doc := struct {
		Emitted uint64  `json:"emitted"`
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}{Events: []Event{}}
	if t != nil {
		doc.Events = t.Events()
		t.mu.Lock()
		doc.Emitted = t.next
		t.mu.Unlock()
		doc.Dropped = doc.Emitted - uint64(len(doc.Events))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
