package watch

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"racetrack/hifi/internal/telemetry/events"
)

// feed applies a representative event sequence: a four-job sweep on two
// workers with one cache hit, an open fault window, and a fidelity
// verdict.
func feed(m *Model) {
	seq := uint64(0)
	emit := func(e events.Event) {
		seq++
		e.Seq = seq
		e.TMS = 1000 + int64(seq)*100
		m.Apply(e)
	}
	emit(events.Event{Type: events.RunStart, Name: "hifi-experiments"})
	emit(events.Event{Type: events.RunPhase, Name: "fig10"})
	for i := 0; i < 4; i++ {
		emit(events.Event{Type: events.JobQueued, Name: "j", N: 4})
	}
	emit(events.Event{Type: events.JobCacheHit, Name: "j0"})
	emit(events.Event{Type: events.JobStarted, Name: "j1", Worker: 0})
	emit(events.Event{Type: events.JobStarted, Name: "j2", Worker: 1})
	emit(events.Event{Type: events.JobFinished, Name: "j1", Worker: 0, MS: 200, N: 1})
	emit(events.Event{Type: events.JobFinished, Name: "j2", Worker: 1, MS: 400, N: 1})
	emit(events.Event{Type: events.JobStarted, Name: "j3", Worker: 0})
	emit(events.Event{Type: events.FaultOpen, Name: "memsim:ferret", N: 1200, V: 3})
	emit(events.Event{Type: events.FidelityVerdict, Name: "fig7_sdc", Detail: "ok", V: 0.93})
}

func TestModelAggregates(t *testing.T) {
	m := NewModel()
	feed(m)

	if m.Tool != "hifi-experiments" {
		t.Errorf("Tool = %q", m.Tool)
	}
	if m.Phase != "fig10" {
		t.Errorf("Phase = %q", m.Phase)
	}
	if m.Queued != 4 {
		t.Errorf("Queued = %d, want 4", m.Queued)
	}
	if m.Completed() != 3 { // 2 finished + 1 cache hit
		t.Errorf("Completed = %d, want 3", m.Completed())
	}
	if got := m.CacheHitRate(); got < 0.32 || got > 0.34 {
		t.Errorf("CacheHitRate = %v, want ~1/3", got)
	}
	if m.Panics != 0 || m.Failed != 0 {
		t.Errorf("Panics, Failed = %d, %d, want none", m.Panics, m.Failed)
	}
	if m.InFlight() != 1 { // j3 on w0
		t.Errorf("InFlight = %d, want 1", m.InFlight())
	}
	if len(m.Faults) != 1 {
		t.Errorf("open faults = %d, want 1", len(m.Faults))
	}
	if m.Verdicts["ok"] != 1 {
		t.Errorf("Verdicts = %v", m.Verdicts)
	}
	// ETA: mean 300ms × 1 remaining ÷ 2 workers = 150ms.
	if eta := m.ETA(); eta != 150*time.Millisecond {
		t.Errorf("ETA = %v, want 150ms", eta)
	}
}

func TestFaultCloseClearsWindow(t *testing.T) {
	m := NewModel()
	m.Apply(events.Event{Seq: 1, Type: events.FaultOpen, Name: "s", N: 10, V: 2})
	m.Apply(events.Event{Seq: 2, Type: events.FaultClose, Name: "s", N: 20})
	if len(m.Faults) != 0 {
		t.Errorf("window still open after fault.close: %v", m.Faults)
	}
}

func TestRenderMentionsKeyFacts(t *testing.T) {
	m := NewModel()
	feed(m)
	out := m.Render()
	for _, want := range []string{
		"hifi-experiments", "phase fig10", "3/4", "cache 1",
		"panic 0  failed 0", "w0:1", "w1:1", "memsim:ferret", "ok=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmptyModel(t *testing.T) {
	if out := NewModel().Render(); out == "" || !strings.Contains(out, "hifi-watch") {
		t.Errorf("empty-model frame unusable: %q", out)
	}
}

// writeLog produces an NDJSON log through the real bus + sink path.
func writeLog(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := events.WriteHeader(f, "hifi-sim"); err != nil {
		t.Fatal(err)
	}
	bus := events.New(0)
	bus.AttachSink(f)
	bus.Emit(events.Event{Type: events.RunStart, Name: "hifi-sim"})
	bus.Emit(events.Event{Type: events.RunPhase, Name: "measure"})
	bus.Emit(events.Event{Type: events.RunFinish, MS: 42})
	if err := bus.SinkErr(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReadFileInto(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	writeLog(t, path)
	m := NewModel()
	if err := ReadFileInto(m, path); err != nil {
		t.Fatal(err)
	}
	if m.Tool != "hifi-sim" || m.Events != 3 || !m.Finished {
		t.Errorf("tool=%q events=%d finished=%v", m.Tool, m.Events, m.Finished)
	}
}

func TestTailFileSeesAppendedEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	writeLog(t, path)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var mu sync.Mutex
	m := NewModel()
	got := make(chan int, 16)
	go func() {
		_ = TailFile(ctx, path,
			func(h events.Header) { mu.Lock(); m.SetTool(h.Tool); mu.Unlock() },
			func(e events.Event) {
				mu.Lock()
				m.Apply(e)
				got <- m.Events
				mu.Unlock()
			})
	}()

	waitFor := func(n int) {
		for {
			select {
			case v := <-got:
				if v >= n {
					return
				}
			case <-ctx.Done():
				t.Fatalf("timed out waiting for %d events", n)
			}
		}
	}
	waitFor(3)

	// Append a fourth event after the tail reached EOF.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	bus := events.New(0)
	bus.AttachSink(f)
	bus.Emit(events.Event{Type: events.RunPhase, Name: "late"})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(4)

	mu.Lock()
	defer mu.Unlock()
	if m.Tool != "hifi-sim" || m.Phase != "late" {
		t.Errorf("tool=%q phase=%q after tail", m.Tool, m.Phase)
	}
}

func TestFollowSSEAppliesReplayAndLive(t *testing.T) {
	bus := events.New(0)
	bus.Emit(events.Event{Type: events.RunStart, Name: "hifi-trace"})
	bus.Emit(events.Event{Type: events.RunPhase, Name: "fig4"})
	srv := httptest.NewServer(events.Handler(bus, nil))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	var mu sync.Mutex
	m := NewModel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = FollowSSE(ctx, srv.URL, func(e events.Event) {
			mu.Lock()
			m.Apply(e)
			n := m.Events
			mu.Unlock()
			if n == 3 {
				cancel()
			}
		})
	}()
	bus.Emit(events.Event{Type: events.RunFinish, MS: 7})
	<-done
	cancel()

	mu.Lock()
	defer mu.Unlock()
	if m.Events != 3 || m.Tool != "hifi-trace" || !m.Finished {
		t.Errorf("events=%d tool=%q finished=%v", m.Events, m.Tool, m.Finished)
	}
	if m.LastSeq != 3 {
		t.Errorf("LastSeq = %d, want 3", m.LastSeq)
	}
}

// flushNotifier closes flushed at the first flush: the SSE handler fixes
// its cursor before it flushes the handshake, so an event emitted after
// that reaches the client live.
type flushNotifier struct {
	http.ResponseWriter
	flushed chan struct{}
	once    sync.Once
}

func (w *flushNotifier) FlushError() error {
	err := http.NewResponseController(w.ResponseWriter).Flush()
	w.once.Do(func() { close(w.flushed) })
	return err
}

// A daemon restart numbers its events from 1 again, below the client's
// cursor. The first connection's Last-Event-ID of 100 counts as the
// restarted bus's seq 5, so the client applies 6 and 7 live. Events 8
// and 9 are emitted while it is away; the reconnect must replay them,
// once each and in order, before the live 10.
func TestSSECursorFollowsRestartedBus(t *testing.T) {
	bus := events.New(0)
	for i := 0; i < 5; i++ {
		bus.Emit(events.Event{Type: events.RunPhase, Name: "before-connect"})
	}
	type conn struct{ done, flushed chan struct{} }
	conns := make(chan conn, 1)
	lastIDs := make(chan string, 2)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := <-conns
		lastIDs <- r.Header.Get("Last-Event-ID")
		events.Handler(bus, c.done).ServeHTTP(&flushNotifier{ResponseWriter: w, flushed: c.flushed}, r)
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	cursor := uint64(100)
	var applied []uint64
	connect := func(live int) {
		t.Helper()
		c := conn{done: make(chan struct{}), flushed: make(chan struct{})}
		conns <- c
		errc := make(chan error, 1)
		go func() {
			errc <- streamSSE(ctx, srv.URL, &cursor, func(e events.Event) { applied = append(applied, e.Seq) })
		}()
		select {
		case <-c.flushed:
		case <-ctx.Done():
			t.Fatal("no handshake")
		}
		for i := 0; i < live; i++ {
			bus.Emit(events.Event{Type: events.RunPhase, Name: "live"})
		}
		close(c.done) // the stream ends after the events emitted so far
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	connect(2)
	bus.Emit(events.Event{Type: events.RunPhase, Name: "while-away"})
	bus.Emit(events.Event{Type: events.RunPhase, Name: "while-away"})
	connect(1)

	if want := []uint64{6, 7, 8, 9, 10}; fmt.Sprint(applied) != fmt.Sprint(want) {
		t.Errorf("applied seqs %v, want %v", applied, want)
	}
	if first, second := <-lastIDs, <-lastIDs; first != "100" || second != "7" {
		t.Errorf("Last-Event-ID %q then %q, want \"100\" then \"7\"", first, second)
	}
	if cursor != 10 {
		t.Errorf("cursor = %d after the reconnect, want 10", cursor)
	}
}
