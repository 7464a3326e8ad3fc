package telemetry

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry owns named metrics. Lookups are write-locked only on first
// registration; handles are cached by the instrumented code, so the hot
// path never touches the registry. A nil *Registry is a valid no-op
// source: every constructor returns a nil handle.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Returns nil when the registry is nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Returns nil when the registry is nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name with the given
// ascending bucket upper bounds, creating it on first use. Returns nil
// when the registry is nil. Re-registering with different bounds keeps
// the original layout.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, help: help, bounds: b}
	h.counts = make([]atomic.Uint64, len(b)+1)
	r.histograms[name] = h
	return h
}

// Label appends one label pair to a base series name, producing the
// Prometheus-style "base{k="v"}" form. Repeated application appends
// further pairs in order: Label(Label(n, "level", "l1"), "op", "read").
func Label(name, key, value string) string {
	if i := strings.LastIndexByte(name, '}'); i >= 0 && strings.IndexByte(name, '{') >= 0 {
		return name[:i] + "," + key + "=" + strconv.Quote(value) + "}"
	}
	return name + "{" + key + "=" + strconv.Quote(value) + "}"
}

// splitName separates a series name into its metric name and label body
// ("" when unlabelled): "a{b="c"}" -> "a", `b="c"`.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	j := strings.LastIndexByte(name, '}')
	if j < i {
		return name, ""
	}
	return name[:i], name[i+1 : j]
}

// sortedKeys returns map keys in lexical order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
