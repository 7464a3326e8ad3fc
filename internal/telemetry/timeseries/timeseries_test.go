package timeseries

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/telemetry"
)

func TestNilSamplerIsNoOp(t *testing.T) {
	var s *Sampler
	s.Tick(5)
	s.Mark("phase")
	s.Cut()
	if got := s.Ticks(); got != 0 {
		t.Errorf("Ticks = %d", got)
	}
	se := s.Export()
	if se.Schema != SchemaV1 || len(se.Windows) != 0 {
		t.Errorf("nil export = %+v", se)
	}
	var b bytes.Buffer
	if err := se.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), SchemaV1) {
		t.Errorf("export JSON missing schema: %s", b.String())
	}
}

func TestNewNilRegistry(t *testing.T) {
	if s := New(nil, Options{}); s != nil {
		t.Error("New(nil) should return a nil sampler")
	}
}

func TestWindowDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("events_total", "")
	g := reg.Gauge("depth", "")
	h := reg.Histogram("dist", "", []float64{1, 2, 4})
	s := New(reg, Options{Every: 10, Capacity: 8})

	c.Add(3)
	g.Set(7)
	h.Observe(1)
	h.Observe(3)
	s.Tick(10) // closes window 0

	c.Add(2)
	g.Set(9)
	s.Tick(10) // closes window 1

	se := s.Export()
	if se.Ticks != 20 || se.Every != 10 {
		t.Fatalf("ticks=%d every=%d", se.Ticks, se.Every)
	}
	if len(se.Windows) != 2 {
		t.Fatalf("windows = %d, want 2", len(se.Windows))
	}
	w0, w1 := se.Windows[0], se.Windows[1]
	if w0.StartTick != 0 || w0.EndTick != 10 || w1.StartTick != 10 || w1.EndTick != 20 {
		t.Errorf("window bounds wrong: %+v %+v", w0, w1)
	}
	if len(w0.Counters) != 1 || w0.Counters[0].Value != 3 {
		t.Errorf("w0 counters = %+v", w0.Counters)
	}
	if len(w1.Counters) != 1 || w1.Counters[0].Value != 2 {
		t.Errorf("w1 counters = %+v (want delta 2, not cumulative 5)", w1.Counters)
	}
	if len(w0.Gauges) != 1 || w0.Gauges[0].Value != 7 || w1.Gauges[0].Value != 9 {
		t.Errorf("gauges wrong: %+v %+v", w0.Gauges, w1.Gauges)
	}
	if len(w0.Histograms) != 1 {
		t.Fatalf("w0 histograms = %+v", w0.Histograms)
	}
	hw := w0.Histograms[0]
	if hw.Count != 2 || hw.Sum != 4 || hw.Mean() != 2 {
		t.Errorf("hist window = %+v", hw)
	}
	// No observations in window 1: histogram elided there.
	if len(w1.Histograms) != 0 {
		t.Errorf("w1 histograms = %+v, want none", w1.Histograms)
	}
}

func TestTickCrossingMidWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("x", "")
	s := New(reg, Options{Every: 100})
	c.Inc()
	s.Tick(250) // crosses two boundaries in one call: one cut
	se := s.Export()
	// One window from the crossing plus the export's tail cut.
	if len(se.Windows) != 1 {
		t.Fatalf("windows = %+v", se.Windows)
	}
	if se.Windows[0].EndTick != 250 {
		t.Errorf("end tick = %d", se.Windows[0].EndTick)
	}
}

func TestMarksAttachToNextWindow(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("x", "").Inc()
	s := New(reg, Options{Every: 10})
	s.Mark("warmup")
	s.Mark("measure")
	s.Tick(10)
	se := s.Export()
	if len(se.Windows) == 0 {
		t.Fatal("no windows")
	}
	got := strings.Join(se.Windows[0].Marks, ",")
	if got != "warmup,measure" {
		t.Errorf("marks = %q", got)
	}
	if len(se.Windows) > 1 && len(se.Windows[1].Marks) != 0 {
		t.Errorf("marks leaked to window 1: %+v", se.Windows[1].Marks)
	}
}

func TestRingBound(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("x", "")
	s := New(reg, Options{Every: 1, Capacity: 4})
	for i := 0; i < 10; i++ {
		c.Inc()
		s.Tick(1)
	}
	se := s.Export()
	if len(se.Windows) > 4 {
		t.Fatalf("ring exceeded capacity: %d windows", len(se.Windows))
	}
	if se.Dropped == 0 {
		t.Error("expected dropped windows")
	}
	// The retained windows are the newest ones.
	last := se.Windows[len(se.Windows)-1]
	if last.EndTick != 10 {
		t.Errorf("newest window end = %d, want 10", last.EndTick)
	}
}

func TestEmptyWindowsElided(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(reg, Options{Every: 10})
	s.Cut()
	s.Cut()
	s.Cut()
	se := s.Export()
	if len(se.Windows) != 0 {
		t.Errorf("idle cuts produced %d windows", len(se.Windows))
	}
}

func TestExportDeterministic(t *testing.T) {
	build := func() Series {
		reg := telemetry.NewRegistry()
		b := reg.Counter("b_total", "")
		a := reg.Counter("a_total", "")
		s := New(reg, Options{Every: 5})
		b.Add(2)
		a.Add(1)
		s.Tick(5)
		return s.Export()
	}
	j1, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(build())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("exports differ:\n%s\n%s", j1, j2)
	}
	// Series sorted by name within the window.
	var se Series
	if err := json.Unmarshal(j1, &se); err != nil {
		t.Fatal(err)
	}
	w := se.Windows[0]
	if w.Counters[0].Name != "a_total" || w.Counters[1].Name != "b_total" {
		t.Errorf("counters not sorted: %+v", w.Counters)
	}
}

func TestCounterAndHistSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("x", "")
	h := reg.Histogram("d", "", []float64{1, 2})
	s := New(reg, Options{Every: 10})
	c.Add(4)
	h.Observe(2)
	s.Tick(10)
	c.Add(6)
	s.Tick(10)
	se := s.Export()
	ticks, deltas := se.CounterSeries("x")
	if len(ticks) != 2 || deltas[0] != 4 || deltas[1] != 6 {
		t.Errorf("counter series = %v %v", ticks, deltas)
	}
	_, means := se.HistMeanSeries("d")
	if means[0] != 2 || means[1] != 0 {
		t.Errorf("hist means = %v", means)
	}
}

// TestPollingLeavesSeriesUnchanged polls Export after every step of a
// run, as a dashboard on the /timeseries route does. The polls render
// the open window without cutting it, so the run's final series equals
// the unpolled one byte for byte: pending marks stay pending, and a
// full ring drops its oldest window only from the polled copy.
func TestPollingLeavesSeriesUnchanged(t *testing.T) {
	const capacity = 2
	run := func(poll bool) []byte {
		reg := telemetry.NewRegistry()
		c := reg.Counter("x", "")
		h := reg.Histogram("d", "", []float64{1, 2})
		s := New(reg, Options{Every: 10, Capacity: capacity})
		steps := []func(){
			c.Inc,
			func() { s.Tick(5) },
			func() { h.Observe(2) },
			c.Inc,
			func() { s.Tick(5) },
			c.Inc,
			func() { s.Tick(10) },
			func() { s.Tick(3) },
			func() { s.Mark("measure") },
			s.Cut,
			c.Inc,
			func() { s.Tick(4) },
			func() { s.Mark("end") },
		}
		for _, step := range steps {
			step()
			if !poll {
				continue
			}
			if se := s.Export(); len(se.Windows) > capacity {
				t.Fatalf("polled export holds %d windows, capacity %d", len(se.Windows), capacity)
			}
		}
		b, err := json.Marshal(s.Export())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if quiet, polled := run(false), run(true); !bytes.Equal(quiet, polled) {
		t.Errorf("polling changed the series:\nunpolled %s\npolled   %s", quiet, polled)
	}
}

// TestConcurrentTicks cuts windows from four ticking goroutines, with
// and without a fifth polling Export meanwhile; the committed deltas
// sum to the ticks either way. 4000/64 cuts plus the tail fit the
// 64-window ring, so nothing drops.
func TestConcurrentTicks(t *testing.T) {
	for _, poll := range []bool{false, true} {
		t.Run(fmt.Sprintf("poll=%v", poll), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			c := reg.Counter("x", "")
			s := New(reg, Options{Every: 64, Capacity: 64})
			done := make(chan struct{})
			var polls sync.WaitGroup
			if poll {
				polls.Add(1)
				go func() {
					defer polls.Done()
					for {
						if se := s.Export(); len(se.Windows) > 64 {
							t.Errorf("polled export holds %d windows", len(se.Windows))
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}()
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 1000; i++ {
						c.Inc()
						s.Tick(1)
					}
				}()
			}
			wg.Wait()
			close(done)
			polls.Wait()
			se := s.Export()
			if se.Ticks != 4000 {
				t.Errorf("ticks = %d", se.Ticks)
			}
			var total float64
			for _, w := range se.Windows {
				for _, cv := range w.Counters {
					total += cv.Value
				}
			}
			if se.Dropped != 0 || total != 4000 {
				t.Errorf("summed deltas = %v with %d dropped, want 4000 and 0", total, se.Dropped)
			}
		})
	}
}

// TestEngineJobSeriesRepeat runs one engine job under a sampler twice,
// the second time on a "slower host": the job takes longer and
// allocates more. The exports must be byte-identical, because the
// engine's host-measured series (wall time, CPU, allocation, GC) stay
// out of the windows while its job counters are windowed as before.
func TestEngineJobSeriesRepeat(t *testing.T) {
	run := func(slow time.Duration, alloc int) []byte {
		reg := telemetry.NewRegistry()
		s := New(reg, Options{Every: 100})
		e := engine.New(engine.Options{Workers: 1, Metrics: reg})
		job := engine.Job{Key: "sampled-job", Fn: func(context.Context) (any, error) {
			time.Sleep(slow)
			buf := make([][]byte, alloc)
			for i := range buf {
				buf[i] = make([]byte, 1024)
			}
			s.Tick(150)
			return len(buf) > 0, nil
		}}
		if _, err := e.Run(context.Background(), []engine.Job{job}); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := s.Export().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), telemetry.MetricEngineExecuted) {
			t.Fatalf("export lacks the engine's job counters:\n%s", b.String())
		}
		return b.Bytes()
	}
	fast, slow := run(time.Millisecond, 1), run(30*time.Millisecond, 4096)
	if !bytes.Equal(fast, slow) {
		t.Errorf("exports differ:\nfast host:\n%s\nslow host:\n%s", fast, slow)
	}
}
