package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"racetrack/hifi/internal/telemetry/tracectx"
)

// Attr is one key/value annotation on a span. Values are strings so the
// export formats stay schema-free; use A/AInt/AFloat to build them.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds a string attribute.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// AInt builds an integer attribute.
func AInt(key string, v int64) Attr { return Attr{Key: key, Value: strconv.FormatInt(v, 10)} }

// AFloat builds a float attribute in shortest form.
func AFloat(key string, v float64) Attr { return Attr{Key: key, Value: fmt.Sprintf("%g", v)} }

// SpanCollector records hierarchical timing spans. Spans nest through
// context.Context (StartSpan), carry attributes, and — when the collector
// was built over a Registry — capture the counter deltas that occurred
// while they were open, so a phase's share of shift cycles or DRAM fills
// is attributable directly from the span export.
//
// Like the rest of the package, absence is free: with no collector in the
// context StartSpan returns a nil *Span, and every method of a nil *Span
// is a no-op branch.
type SpanCollector struct {
	mu       sync.Mutex
	reg      *Registry
	epoch    time.Time
	clock    func() time.Time // stubbed in tests
	nextID   uint64
	active   map[uint64]*Span
	finished []SpanRecord
	capacity int
	dropped  uint64
}

// DefaultSpanCapacity bounds retained finished spans; later spans are
// counted as dropped. Spans are phase-grained (runs, sweeps, warmup), so
// the cap is generous.
const DefaultSpanCapacity = 1 << 16

// NewSpanCollector returns an empty collector. reg may be nil; when set,
// every span records the registry's counter deltas over its lifetime.
func NewSpanCollector(reg *Registry) *SpanCollector {
	now := time.Now()
	return &SpanCollector{
		reg:      reg,
		epoch:    now,
		clock:    time.Now,
		active:   map[uint64]*Span{},
		capacity: DefaultSpanCapacity,
	}
}

// Span is one in-flight or finished timing region. A nil *Span is a valid
// disabled handle.
type Span struct {
	col    *SpanCollector
	id     uint64
	parent uint64
	name   string
	attrs  []Attr
	start  time.Time
	startC map[string]float64 // counter values at start (nil without registry)
	dur    time.Duration
	ended  bool
}

// SpanRecord is the immutable exported form of a span. StartNS is the
// offset from the collector's epoch, so records are comparable across
// processes without wall-clock coupling.
type SpanRecord struct {
	ID      uint64        `json:"id"`
	Parent  uint64        `json:"parent,omitempty"` // 0 means root
	Name    string        `json:"name"`
	Attrs   []Attr        `json:"attrs,omitempty"`
	StartNS int64         `json:"start_ns"`
	DurNS   int64         `json:"dur_ns"`
	Running bool          `json:"running,omitempty"`
	Metrics []SeriesValue `json:"metrics,omitempty"` // counter deltas over the span
}

type collectorKey struct{}
type spanKey struct{}

// WithCollector returns a context carrying col; StartSpan below it
// records into col.
func WithCollector(ctx context.Context, col *SpanCollector) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, collectorKey{}, col)
}

// CollectorFrom returns the collector carried by ctx, or nil.
func CollectorFrom(ctx context.Context) *SpanCollector {
	if ctx == nil {
		return nil
	}
	col, _ := ctx.Value(collectorKey{}).(*SpanCollector)
	return col
}

// StartSpan opens a span named name under the span already in ctx (if
// any) and returns a context carrying the new span as parent for further
// nesting. With no collector in ctx it returns ctx unchanged and a nil
// span, costing two context lookups and nothing else.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	col, _ := ctx.Value(collectorKey{}).(*SpanCollector)
	if col == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	// Root spans inherit the request correlation ID from the context
	// (set by the hifi-serve HTTP layer via tracectx.Into), so a span
	// export greps by the same trace ID as the access and event logs.
	// Child spans skip the attr: the root anchors the whole tree.
	if parent == nil {
		if tc, ok := tracectx.From(ctx); ok {
			attrs = append(attrs, A("trace_id", tc.TraceID.String()))
		}
	}
	sp := col.start(parent, name, attrs)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

func (c *SpanCollector) start(parent *Span, name string, attrs []Attr) *Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	sp := &Span{
		col:   c,
		id:    c.nextID,
		name:  name,
		attrs: attrs,
		start: c.clock(),
	}
	if parent != nil {
		sp.parent = parent.id
	}
	if c.reg != nil {
		sp.startC = c.reg.counterValues()
	}
	c.active[sp.id] = sp
	return sp
}

// Name returns the span name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr adds (or appends) an attribute after the span was started.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.col.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.col.mu.Unlock()
}

// Duration returns the span's length: final once ended, the running
// elapsed time while open, 0 for a nil span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.col.mu.Lock()
	defer s.col.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return s.col.clock().Sub(s.start)
}

// End closes the span, fixing its duration and counter deltas. Ending a
// span twice is a no-op; ending a nil span is a single branch.
func (s *Span) End() {
	if s == nil {
		return
	}
	c := s.col
	c.mu.Lock()
	defer c.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = c.clock().Sub(s.start)
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		Attrs:   s.attrs,
		StartNS: s.start.Sub(c.epoch).Nanoseconds(),
		DurNS:   s.dur.Nanoseconds(),
	}
	if s.startC != nil {
		end := c.reg.counterValues()
		for _, k := range sortedKeys(end) {
			if d := end[k] - s.startC[k]; d != 0 {
				rec.Metrics = append(rec.Metrics, SeriesValue{Name: k, Value: d})
			}
		}
	}
	delete(c.active, s.id)
	if len(c.finished) >= c.capacity {
		c.dropped++
	} else {
		c.finished = append(c.finished, rec)
	}
}

// counterValues copies the current counter totals (nil registry yields
// nil). Used by span delta accounting; spans are phase-grained, so the
// copy is off any hot path.
func (r *Registry) counterValues() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.counters))
	for k, c := range r.counters {
		out[k] = c.Value()
	}
	return out
}

// SpanExport is a consistent snapshot of a collector: finished spans in
// start order plus the currently open ones (with running durations).
type SpanExport struct {
	Spans    []SpanRecord `json:"spans"`
	InFlight []SpanRecord `json:"in_flight,omitempty"`
	Dropped  uint64       `json:"dropped,omitempty"`
}

// Export snapshots the collector. A nil collector yields an empty export.
func (c *SpanCollector) Export() SpanExport {
	var e SpanExport
	e.Spans = []SpanRecord{}
	if c == nil {
		return e
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e.Spans = append(e.Spans, c.finished...)
	sort.Slice(e.Spans, func(i, j int) bool { return e.Spans[i].ID < e.Spans[j].ID })
	now := c.clock()
	for _, id := range sortedSpanIDs(c.active) {
		sp := c.active[id]
		e.InFlight = append(e.InFlight, SpanRecord{
			ID:      sp.id,
			Parent:  sp.parent,
			Name:    sp.name,
			Attrs:   sp.attrs,
			StartNS: sp.start.Sub(c.epoch).Nanoseconds(),
			DurNS:   now.Sub(sp.start).Nanoseconds(),
			Running: true,
		})
	}
	e.Dropped = c.dropped
	return e
}

func sortedSpanIDs(m map[uint64]*Span) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WriteJSON emits the export as indented JSON.
func (e SpanExport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// WriteFolded emits the export as folded stacks — one line per unique
// root-to-leaf name path, with the accumulated self time in microseconds —
// the input format of flamegraph.pl, inferno, and speedscope. Lines are
// sorted, so identical span trees fold to identical bytes.
func (e SpanExport) WriteFolded(w io.Writer) error {
	all := append(append([]SpanRecord{}, e.Spans...), e.InFlight...)
	byID := make(map[uint64]SpanRecord, len(all))
	childNS := make(map[uint64]int64)
	for _, r := range all {
		byID[r.ID] = r
	}
	for _, r := range all {
		if r.Parent != 0 {
			childNS[r.Parent] += r.DurNS
		}
	}
	path := func(r SpanRecord) string {
		parts := []string{r.Name}
		for p := r.Parent; p != 0; {
			pr, ok := byID[p]
			if !ok {
				break
			}
			parts = append(parts, pr.Name)
			p = pr.Parent
		}
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		return strings.Join(parts, ";")
	}
	selfUS := map[string]int64{}
	for _, r := range all {
		self := r.DurNS - childNS[r.ID]
		if self < 0 {
			self = 0
		}
		selfUS[path(r)] += self / 1000
	}
	var b strings.Builder
	for _, k := range int64SortedKeys(selfUS) {
		fmt.Fprintf(&b, "%s %d\n", k, selfUS[k])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func int64SortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteFiles writes the export next to base in both formats:
// "<base>.spans.json" and "<base>.folded" (an existing .json extension on
// base is trimmed first). It returns the two paths written.
func (e SpanExport) WriteFiles(base string) (jsonPath, foldedPath string, err error) {
	base = strings.TrimSuffix(base, ".json")
	base = strings.TrimSuffix(base, ".spans")
	jsonPath, foldedPath = base+".spans.json", base+".folded"
	if err := writeTo(jsonPath, e.WriteJSON); err != nil {
		return "", "", err
	}
	if err := writeTo(foldedPath, e.WriteFolded); err != nil {
		return "", "", err
	}
	return jsonPath, foldedPath, nil
}
