package telemetry

import (
	"math"
	"slices"
	"sync"
	"testing"
)

func TestNilHandlesAreNoops(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(3)
	g.Set(5)
	g.Add(-2)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	c.Add(2.5)
	c.Add(-4) // ignored: counters are monotone
	c.Add(0)  // ignored
	c.Inc()
	if got := c.Value(); got != 3.5 {
		t.Fatalf("Value = %v, want 3.5", got)
	}
}

func TestGaugeMovesBothWays(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "")
	g.Set(10)
	g.Add(-4)
	g.Add(1.5)
	if got := g.Value(); got != 7.5 {
		t.Fatalf("Value = %v, want 7.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("Value = %v, want -1", got)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	d := snap.Histograms[0]
	// Upper bounds are inclusive: le=1 holds {0.5, 1}, le=2 holds
	// {1.5, 2}, le=4 holds {3, 4}, +Inf holds {100}.
	want := []uint64{2, 2, 2, 1}
	for i, w := range want {
		if d.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, d.Counts[i], w, d.Counts)
		}
	}
	if d.Count != 7 || d.Sum != 112 {
		t.Fatalf("count/sum = %d/%v, want 7/112", d.Count, d.Sum)
	}
}

// TestObserveNMatchesRepeatedObserve: a bulk update of whole-number
// samples leaves the same buckets, count and sum as one Observe each.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	r := NewRegistry()
	bulk := r.Histogram("bulk", "", ShiftDistanceBuckets())
	each := r.Histogram("each", "", ShiftDistanceBuckets())
	for v, n := range []uint64{3, 0, 7, 1, 12, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4} {
		bulk.ObserveN(float64(v), n)
		for range n {
			each.Observe(float64(v))
		}
	}
	snap := r.Snapshot()
	b, e := snap.Histograms[0], snap.Histograms[1]
	if b.Count != e.Count || b.Sum != e.Sum || !slices.Equal(b.Counts, e.Counts) {
		t.Fatalf("ObserveN gave %d/%v/%v, Observe %d/%v/%v", b.Count, b.Sum, b.Counts, e.Count, e.Sum, e.Counts)
	}
	var nilH *Histogram
	nilH.ObserveN(1, 5) // nil-safe
}

// TestConcurrentUpdates exercises every metric type from many goroutines;
// run under -race this is the data-race proof, and the totals prove no
// lost updates in the CAS loops.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", ShiftDistanceBuckets())

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(0.5)
				g.Add(1)
				h.Observe(float64(i%7 + 1))
			}
		}(w)
	}
	wg.Wait()

	if got, want := c.Value(), 0.5*workers*perWorker; got != want {
		t.Errorf("counter = %v, want %v", got, want)
	}
	if got, want := g.Value(), float64(workers*perWorker); got != want {
		t.Errorf("gauge = %v, want %v", got, want)
	}
	if got, want := h.Count(), uint64(workers*perWorker); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	var bucketSum uint64
	for _, d := range r.Snapshot().Histograms {
		for _, n := range d.Counts {
			bucketSum += n
		}
	}
	if got, want := bucketSum, uint64(workers*perWorker); got != want {
		t.Errorf("bucket total = %d, want %d", got, want)
	}
}

// TestConcurrentRegistration hammers the registry's first-use creation
// path: all goroutines must agree on one handle per name.
func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	handles := make([]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			handles[w] = r.Counter("shared", "")
			handles[w].Inc()
		}(w)
	}
	wg.Wait()
	for _, h := range handles[1:] {
		if h != handles[0] {
			t.Fatal("same name must yield the same handle")
		}
	}
	if got := handles[0].Value(); got != workers {
		t.Fatalf("shared counter = %v, want %d", got, workers)
	}
}

func TestAddFloatExactness(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	for i := 0; i < 1000; i++ {
		c.Add(0.125) // exactly representable: the sum must be exact
	}
	if got := c.Value(); got != 125 {
		t.Fatalf("Value = %v, want 125", got)
	}
	if math.IsNaN(c.Value()) {
		t.Fatal("NaN leaked into counter")
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("c", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	h := NewRegistry().Histogram("h", "", ShiftDistanceBuckets())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 7))
	}
}
