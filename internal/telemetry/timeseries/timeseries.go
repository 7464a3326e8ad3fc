// Package timeseries adds the time axis to the telemetry registry: a
// windowed sampler that snapshots selected registry series every N
// simulated accesses (ticks) and retains per-window deltas in a bounded
// ring. Where a Snapshot answers "what happened over the whole run", a
// Series answers "how did it evolve" — error-injection rates climbing
// with temperature, shift-distance distributions settling after warmup,
// cache miss bursts at working-set boundaries.
//
// The design follows the rest of the telemetry stack:
//
//   - a nil *Sampler is a valid no-op handle; Tick on it is one branch,
//     so instrumented code holds the field unconditionally.
//   - the tick path is lock-free (one atomic add and a compare); the
//     window-cut path takes a mutex, but runs once per N ticks. The
//     simulator ticks in batches that end on window boundaries, so the
//     tick path is off its per-access loop too.
//   - exports are deterministic: series within a window are sorted by
//     name, so identical tick sequences produce identical bytes.
//
// The simulated-access tick is the only clock, so identical runs cut
// their windows at the same ticks. Series the host measures (wall time,
// CPU, allocation; telemetry.HostMeasured) stay out of the windows, so
// identical serial runs export identical bytes. An export renders the
// still-open window as a provisional tail and commits nothing, so
// polling the /timeseries status route mid-run leaves the run's series
// unchanged.
package timeseries

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"racetrack/hifi/internal/telemetry"
)

// DefaultEvery is the default window width in ticks (simulated accesses).
const DefaultEvery = 4096

// DefaultCapacity bounds the retained window ring; older windows are
// dropped (and counted) once the ring is full.
const DefaultCapacity = 1024

// Options configures a Sampler.
type Options struct {
	// Every is the window width in ticks; DefaultEvery when <= 0.
	Every int
	// Capacity is the maximum number of retained windows;
	// DefaultCapacity when <= 0.
	Capacity int
}

// Sampler cuts the registry's cumulative series into windows.
type Sampler struct {
	reg   *telemetry.Registry
	every int64

	ticks atomic.Int64

	mu       sync.Mutex
	capacity int
	windows  []Window
	dropped  uint64
	marks    []string
	index    int
	lastTick int64
	last     baseline
}

// baseline is the cumulative state at the previous cut, used to compute
// per-window deltas.
type baseline struct {
	counters map[string]float64
	gauges   []telemetry.SeriesValue
	hists    map[string]histState
}

type histState struct {
	counts []uint64
	sum    float64
	count  uint64
}

// New builds a sampler over reg. A nil registry yields a nil sampler:
// the whole subsystem then costs one branch per Tick.
func New(reg *telemetry.Registry, opts Options) *Sampler {
	if reg == nil {
		return nil
	}
	if opts.Every <= 0 {
		opts.Every = DefaultEvery
	}
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	s := &Sampler{
		reg:      reg,
		every:    int64(opts.Every),
		capacity: opts.Capacity,
	}
	s.last = s.capture()
	return s
}

// Every returns the configured window width in ticks (0 for nil).
func (s *Sampler) Every() int {
	if s == nil {
		return 0
	}
	return int(s.every)
}

// Tick advances the simulated clock by n ticks, cutting one window when
// a multiple of the window width is crossed. Nil-safe and
// concurrency-safe. memsim does not tick per access: it ticks once per
// publish, by the accesses since the previous one, ending each batch on
// a window boundary (see Every).
func (s *Sampler) Tick(n int) {
	if s == nil || n <= 0 {
		return
	}
	before := s.ticks.Add(int64(n)) - int64(n)
	after := before + int64(n)
	if after/s.every > before/s.every {
		s.Cut()
	}
}

// Ticks returns the current tick count (0 for nil).
func (s *Sampler) Ticks() int64 {
	if s == nil {
		return 0
	}
	return s.ticks.Load()
}

// Mark annotates the next cut window with a label (phase boundaries,
// workload starts). Nil-safe.
func (s *Sampler) Mark(label string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.marks = append(s.marks, label)
	s.mu.Unlock()
}

// Cut closes the current window immediately, regardless of tick
// alignment. Used at phase boundaries so warmup and measurement never
// share a window. Windows with no ticks, no marks, and no activity are
// elided. Nil-safe.
func (s *Sampler) Cut() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cutLocked()
}

func (s *Sampler) cutLocked() {
	w, cur, ok := s.openLocked()
	s.last = cur
	if !ok {
		return
	}
	s.index++
	s.lastTick = w.EndTick
	s.marks = nil
	if len(s.windows) >= s.capacity {
		copy(s.windows, s.windows[1:])
		s.windows = s.windows[:len(s.windows)-1]
		s.dropped++
	}
	s.windows = append(s.windows, w)
}

// openLocked renders the open window, the deltas since the last cut,
// with the registry state it was taken against. ok is false when
// nothing happened at all (no ticks, marks, or deltas): such a window
// is elided, or back-to-back cuts on an idle registry would fill the
// ring with noise.
func (s *Sampler) openLocked() (w Window, cur baseline, ok bool) {
	now := s.ticks.Load()
	cur = s.capture()
	w = Window{
		Index:     s.index,
		StartTick: s.lastTick,
		EndTick:   now,
		Marks:     s.marks,
	}
	for _, k := range sortedKeys(cur.counters) {
		if d := cur.counters[k] - s.last.counters[k]; d != 0 {
			w.Counters = append(w.Counters, telemetry.SeriesValue{Name: k, Value: d})
		}
	}
	for _, g := range cur.gauges {
		w.Gauges = append(w.Gauges, telemetry.SeriesValue{Name: g.Name, Value: g.Value})
	}
	for _, k := range sortedKeys(cur.hists) {
		h := cur.hists[k]
		prev := s.last.hists[k]
		if h.count == prev.count {
			continue
		}
		hw := HistWindow{
			Name:  k,
			Count: h.count - prev.count,
			Sum:   h.sum - prev.sum,
		}
		for i, c := range h.counts {
			var p uint64
			if i < len(prev.counts) {
				p = prev.counts[i]
			}
			hw.Counts = append(hw.Counts, c-p)
		}
		w.Histograms = append(w.Histograms, hw)
	}
	ok = w.EndTick != w.StartTick || len(w.Marks) != 0 ||
		len(w.Counters) != 0 || len(w.Histograms) != 0
	return w, cur, ok
}

// capture copies the cumulative counter and histogram state, without
// the host-measured series.
func (s *Sampler) capture() baseline {
	snap := s.reg.Snapshot()
	b := baseline{
		counters: make(map[string]float64, len(snap.Counters)),
		hists:    make(map[string]histState, len(snap.Histograms)),
	}
	for _, c := range snap.Counters {
		if !telemetry.HostMeasured(c.Name) {
			b.counters[c.Name] = c.Value
		}
	}
	for _, g := range snap.Gauges {
		b.gauges = append(b.gauges, telemetry.SeriesValue{Name: g.Name, Value: g.Value})
	}
	for _, h := range snap.Histograms {
		if !telemetry.HostMeasured(h.Name) {
			b.hists[h.Name] = histState{counts: h.Counts, sum: h.Sum, count: h.Count}
		}
	}
	return b
}

// Window is one closed sampling window: series deltas between two cuts.
type Window struct {
	Index     int      `json:"index"`
	StartTick int64    `json:"start_tick"`
	EndTick   int64    `json:"end_tick"`
	Marks     []string `json:"marks,omitempty"`
	// Counters holds per-window deltas (only series that moved).
	Counters []telemetry.SeriesValue `json:"counters,omitempty"`
	// Gauges holds the values at window close.
	Gauges []telemetry.SeriesValue `json:"gauges,omitempty"`
	// Histograms holds per-window distribution summaries (only series
	// that received observations).
	Histograms []HistWindow `json:"histograms,omitempty"`
}

// HistWindow summarizes one histogram over one window.
type HistWindow struct {
	Name   string   `json:"name"`
	Count  uint64   `json:"count"`
	Sum    float64  `json:"sum"`
	Counts []uint64 `json:"counts"` // per-bucket deltas, +Inf last
}

// Mean returns the window's average observation (0 when empty).
func (h HistWindow) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Series is a consistent export of the sampler: every retained window
// plus the still-open tail, rendered as if it were cut now.
type Series struct {
	Schema  string   `json:"schema"`
	Every   int      `json:"every"`
	Ticks   int64    `json:"ticks"`
	Dropped uint64   `json:"dropped,omitempty"`
	Windows []Window `json:"windows"`
}

// SchemaV1 names the export layout.
const SchemaV1 = "hifi_timeseries_v1"

// Export snapshots the ring with the open window as a provisional
// tail: what a cut now would retain, while the sampler itself commits
// nothing. Its baseline, window index, marks and ring are untouched, so
// a series polled mid-window equals the unpolled one. A nil sampler
// yields an empty, still-valid Series.
func (s *Sampler) Export() Series {
	se := Series{Schema: SchemaV1, Windows: []Window{}}
	if s == nil {
		return se
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tail, _, open := s.openLocked()
	se.Every = int(s.every)
	se.Ticks = s.ticks.Load()
	se.Dropped = s.dropped
	ring := s.windows
	if open && len(ring) >= s.capacity {
		ring = ring[1:]
		se.Dropped++
	}
	se.Windows = append(se.Windows, ring...)
	if open {
		se.Windows = append(se.Windows, tail)
	}
	return se
}

// WriteJSON emits the series as indented JSON.
func (se Series) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(se)
}

// WriteFile writes the series to path.
func (se Series) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := se.WriteJSON(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// CounterSeries extracts one counter's per-window deltas in window
// order, returning parallel tick (window end) and delta slices.
func (se Series) CounterSeries(name string) (ticks []int64, deltas []float64) {
	for _, w := range se.Windows {
		var v float64
		for _, c := range w.Counters {
			if c.Name == name {
				v = c.Value
				break
			}
		}
		ticks = append(ticks, w.EndTick)
		deltas = append(deltas, v)
	}
	return ticks, deltas
}

// HistMeanSeries extracts one histogram's per-window mean observation.
func (se Series) HistMeanSeries(name string) (ticks []int64, means []float64) {
	for _, w := range se.Windows {
		var m float64
		for _, h := range w.Histograms {
			if h.Name == name {
				m = h.Mean()
				break
			}
		}
		ticks = append(ticks, w.EndTick)
		means = append(means, m)
	}
	return ticks, means
}

// Handler serves the live export as JSON, for the /timeseries status
// route. A nil sampler serves an empty series, so dashboards can poll
// uniformly.
func (s *Sampler) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = s.Export().WriteJSON(w)
	})
}

// sortedKeys returns map keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
