package telemetry

import "testing"

func TestRegistryIdempotentCreation(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("c", "first help")
	c2 := r.Counter("c", "different help")
	if c1 != c2 {
		t.Fatal("re-registering a counter must return the original")
	}
	h1 := r.Histogram("h", "", []float64{1, 2})
	h2 := r.Histogram("h", "", []float64{10, 20, 30})
	if h1 != h2 {
		t.Fatal("re-registering a histogram must return the original")
	}
	if len(h1.bounds) != 2 {
		t.Fatalf("original bucket layout must win, got %v", h1.bounds)
	}
}

func TestHistogramBoundsCopied(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{1, 2, 3}
	h := r.Histogram("h", "", bounds)
	bounds[0] = 99 // caller mutation must not corrupt the layout
	h.Observe(1)
	if got := r.Snapshot().Histograms[0].Counts[0]; got != 1 {
		t.Fatalf("le=1 bucket = %d, want 1 (bounds aliased?)", got)
	}
}

func TestLabel(t *testing.T) {
	cases := []struct{ in, key, val, want string }{
		{"m", "level", "l1", `m{level="l1"}`},
		{`m{level="l1"}`, "op", "read", `m{level="l1",op="read"}`},
		{"m", "path", "a\"b\n", `m{path="a\"b\n"}`},
	}
	for _, c := range cases {
		if got := Label(c.in, c.key, c.val); got != c.want {
			t.Errorf("Label(%q, %q, %q) = %q, want %q", c.in, c.key, c.val, got, c.want)
		}
	}
}

func TestSplitName(t *testing.T) {
	cases := []struct{ in, base, labels string }{
		{"m", "m", ""},
		{`m{a="b"}`, "m", `a="b"`},
		{`m{a="b",c="d"}`, "m", `a="b",c="d"`},
	}
	for _, c := range cases {
		base, labels := splitName(c.in)
		if base != c.base || labels != c.labels {
			t.Errorf("splitName(%q) = %q, %q, want %q, %q", c.in, base, labels, c.base, c.labels)
		}
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	l1 := r.Counter(Label("hits", "level", "l1"), "")
	l2 := r.Counter(Label("hits", "level", "l2"), "")
	if l1 == l2 {
		t.Fatal("different labels must be different series")
	}
	l1.Add(3)
	l2.Add(5)
	s := r.Snapshot()
	if v, ok := s.Lookup(`hits{level="l1"}`); !ok || v != 3 {
		t.Fatalf(`Lookup(hits{level="l1"}) = %v, %v`, v, ok)
	}
	if v, ok := s.Lookup(`hits{level="l2"}`); !ok || v != 5 {
		t.Fatalf(`Lookup(hits{level="l2"}) = %v, %v`, v, ok)
	}
}
