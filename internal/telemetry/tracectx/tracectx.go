// Package tracectx is the request-correlation primitive of the
// observability stack: a W3C Trace Context (traceparent) parser and
// formatter, a deterministic seedable TraceID/SpanID generator, and
// context.Context propagation helpers.
//
// A trace ID names one request's journey end to end: minted (or
// ingested from an incoming traceparent header) at the HTTP edge of
// hifi-serve, threaded through the job it admits, stamped onto every
// event the job emits (events.Bus.SetTraceID), annotated onto every
// span opened under the job's context (telemetry.StartSpan), and echoed
// back to the client in the traceparent/X-Request-Id response headers.
// One grep for the hex trace ID over the access log, the event log, and
// the span export reconstructs the full lifecycle — the correlation
// contract the planned coordinator/worker split will carry across
// hosts. See docs/observability.md ("Tracing a request end to end").
//
// The package is dependency-free and imports nothing from the rest of
// the telemetry stack, so every layer (telemetry, events, serve) can
// depend on it without cycles.
package tracectx

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Header is the W3C trace-context request/response header name.
const Header = "traceparent"

// TraceID is the 16-byte whole-trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte per-hop identifier (the traceparent "parent-id").
type SpanID [8]byte

// String renders the ID as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// FlagSampled is the traceparent sampled flag bit.
const FlagSampled = 0x01

// Context is one position in a trace: the trace it belongs to, the span
// that produced it, and the trace flags. The zero value is invalid.
type Context struct {
	TraceID TraceID
	SpanID  SpanID
	Flags   byte
}

// Valid reports whether both IDs are non-zero, per the W3C spec.
func (c Context) Valid() bool { return !c.TraceID.IsZero() && !c.SpanID.IsZero() }

// Traceparent renders the context as a version-00 traceparent header
// value: "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>".
func (c Context) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", c.TraceID, c.SpanID, c.Flags)
}

// Parse decodes a traceparent header value. It accepts the version-00
// layout exactly and, per the spec's forward-compatibility rule, any
// higher hex version whose value starts with the same four fields (the
// remainder after the flags must then begin with "-"). Hex digits must
// be lowercase; all-zero trace or parent IDs and version "ff" are
// rejected.
func Parse(header string) (Context, error) {
	var c Context
	h := header
	if len(h) < 55 {
		return c, fmt.Errorf("tracectx: traceparent too short (%d < 55 chars)", len(h))
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return c, fmt.Errorf("tracectx: traceparent %q: bad field separators", header)
	}
	ver, traceHex, spanHex, flagsHex := h[0:2], h[3:35], h[36:52], h[53:55]
	vb, err := decodeLowerHex(ver)
	if err != nil {
		return c, fmt.Errorf("tracectx: traceparent version: %w", err)
	}
	switch {
	case vb[0] == 0xff:
		return c, fmt.Errorf("tracectx: traceparent version ff is forbidden")
	case vb[0] == 0 && len(h) != 55:
		return c, fmt.Errorf("tracectx: version-00 traceparent must be exactly 55 chars, got %d", len(h))
	case vb[0] != 0 && len(h) > 55 && h[55] != '-':
		return c, fmt.Errorf("tracectx: traceparent %q: trailing data without separator", header)
	}
	tb, err := decodeLowerHex(traceHex)
	if err != nil {
		return c, fmt.Errorf("tracectx: trace-id: %w", err)
	}
	sb, err := decodeLowerHex(spanHex)
	if err != nil {
		return c, fmt.Errorf("tracectx: parent-id: %w", err)
	}
	fb, err := decodeLowerHex(flagsHex)
	if err != nil {
		return c, fmt.Errorf("tracectx: trace-flags: %w", err)
	}
	copy(c.TraceID[:], tb)
	copy(c.SpanID[:], sb)
	c.Flags = fb[0]
	if c.TraceID.IsZero() {
		return Context{}, fmt.Errorf("tracectx: all-zero trace-id is invalid")
	}
	if c.SpanID.IsZero() {
		return Context{}, fmt.Errorf("tracectx: all-zero parent-id is invalid")
	}
	return c, nil
}

// ParseTraceID decodes a bare 32-char lowercase-hex trace ID (the form
// logs and the serve job index carry). The all-zero ID is rejected.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("tracectx: trace-id %q: want 32 hex chars, got %d", s, len(s))
	}
	b, err := decodeLowerHex(s)
	if err != nil {
		return t, fmt.Errorf("tracectx: trace-id: %w", err)
	}
	copy(t[:], b)
	if t.IsZero() {
		return t, fmt.Errorf("tracectx: all-zero trace-id is invalid")
	}
	return t, nil
}

// decodeLowerHex decodes s, rejecting uppercase digits (the W3C grammar
// allows lowercase only).
func decodeLowerHex(s string) ([]byte, error) {
	if s != strings.ToLower(s) {
		return nil, fmt.Errorf("uppercase hex in %q", s)
	}
	return hex.DecodeString(s)
}

// Gen generates trace and span IDs. Seeded generation is deterministic
// — the same seed yields the same ID sequence, which is what lets tests
// and reproducible daemons pin their correlation IDs — while seed 0
// draws a random seed from crypto/rand (the production default). Safe
// for concurrent use.
type Gen struct {
	mu    sync.Mutex
	state uint64
}

// NewGen returns a generator. seed 0 means "unpredictable": the state
// is drawn from crypto/rand.
func NewGen(seed uint64) *Gen {
	if seed == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err == nil {
			seed = binary.LittleEndian.Uint64(b[:])
		}
		if seed == 0 {
			seed = 0x9e3779b97f4a7c15 // rand failed or drew 0; any fixed non-zero works
		}
	}
	return &Gen{state: seed}
}

// next is one splitmix64 step: a full-period 64-bit sequence, so IDs
// never repeat within a generator's lifetime at any realistic scale.
func (g *Gen) next() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// TraceID draws a new non-zero trace ID.
func (g *Gen) TraceID() TraceID {
	g.mu.Lock()
	defer g.mu.Unlock()
	var t TraceID
	for t.IsZero() {
		binary.BigEndian.PutUint64(t[0:8], g.next())
		binary.BigEndian.PutUint64(t[8:16], g.next())
	}
	return t
}

// SpanID draws a new non-zero span ID.
func (g *Gen) SpanID() SpanID {
	g.mu.Lock()
	defer g.mu.Unlock()
	var s SpanID
	for s.IsZero() {
		binary.BigEndian.PutUint64(s[:], g.next())
	}
	return s
}

// NewContext mints a fresh sampled context: a new trace with this
// process as its first span.
func (g *Gen) NewContext() Context {
	return Context{TraceID: g.TraceID(), SpanID: g.SpanID(), Flags: FlagSampled}
}

// Child returns a context continuing parent's trace through a new span
// minted from g — what a server does when it ingests a traceparent.
func (g *Gen) Child(parent Context) Context {
	return Context{TraceID: parent.TraceID, SpanID: g.SpanID(), Flags: parent.Flags}
}

type ctxKey struct{}

// Into returns a context.Context carrying tc; StartSpan and other
// consumers below it recover it with From.
func Into(ctx context.Context, tc Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, ctxKey{}, tc)
}

// From returns the trace context carried by ctx, if any.
func From(ctx context.Context) (Context, bool) {
	if ctx == nil {
		return Context{}, false
	}
	tc, ok := ctx.Value(ctxKey{}).(Context)
	return tc, ok && tc.Valid()
}

// FromRequest parses the request's traceparent header. ok is false when
// the header is absent or malformed — the caller mints a fresh context
// instead (a malformed header must not poison the request, per spec).
func FromRequest(r *http.Request) (Context, bool) {
	h := r.Header.Get(Header)
	if h == "" {
		return Context{}, false
	}
	tc, err := Parse(h)
	if err != nil {
		return Context{}, false
	}
	return tc, true
}
