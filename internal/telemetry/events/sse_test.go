package events

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sseFrame is one parsed SSE event frame.
type sseFrame struct {
	ID    uint64
	Event string
	Data  Event
}

// readFrames consumes SSE frames from r until n frames arrive or the
// stream ends, skipping comment lines.
func readFrames(t *testing.T, r *bufio.Reader, n int) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	var sawData bool
	for len(frames) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended after %d/%d frames: %v", len(frames), n, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if sawData {
				frames = append(frames, cur)
				cur, sawData = sseFrame{}, false
			}
		case strings.HasPrefix(line, ":"):
			// comment (handshake)
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.ID = id
		case strings.HasPrefix(line, "event: "):
			cur.Event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(line[len("data: "):]), &cur.Data); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			sawData = true
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

func dialSSE(t *testing.T, url string, lastEventID uint64) (*bufio.Reader, func()) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(lastEventID, 10))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Fatalf("Cache-Control = %q, want no-store", cc)
	}
	return bufio.NewReader(resp.Body), func() { _ = resp.Body.Close() }
}

func TestSSELiveStream(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b, nil))
	defer srv.Close()

	r, done := dialSSE(t, srv.URL, 0)
	defer done()

	go func() {
		for i := 0; i < 5; i++ {
			b.Emit(Event{Type: JobFinished, Name: fmt.Sprintf("job-%d", i), N: 1})
		}
	}()

	frames := readFrames(t, r, 5)
	for i, f := range frames {
		if f.ID != uint64(i+1) {
			t.Errorf("frame %d has id %d, want %d (monotonic from 1)", i, f.ID, i+1)
		}
		if f.Event != string(JobFinished) {
			t.Errorf("frame %d event = %q", i, f.Event)
		}
		if f.Data.Seq != f.ID {
			t.Errorf("frame %d: data.seq %d != id %d", i, f.Data.Seq, f.ID)
		}
		if f.Data.Name != fmt.Sprintf("job-%d", i) {
			t.Errorf("frame %d name = %q", i, f.Data.Name)
		}
	}
}

func TestSSEReplayFromLastEventID(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b, nil))
	defer srv.Close()

	for i := 0; i < 8; i++ {
		b.Emit(Event{Type: RunPhase, Name: fmt.Sprintf("p%d", i)})
	}

	// Reconnect claiming we saw up to id 5: frames 6, 7, 8 replay, then
	// live events follow seamlessly.
	r, done := dialSSE(t, srv.URL, 5)
	defer done()
	frames := readFrames(t, r, 3)
	for i, f := range frames {
		if f.ID != uint64(6+i) {
			t.Fatalf("replay frame %d has id %d, want %d", i, f.ID, 6+i)
		}
	}
	b.Emit(Event{Type: RunFinish})
	live := readFrames(t, r, 1)
	if live[0].ID != 9 || live[0].Event != string(RunFinish) {
		t.Fatalf("post-replay live frame = %+v, want run.finish id 9", live[0])
	}
}

func TestSSEReplayQueryParam(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b, nil))
	defer srv.Close()
	for i := 0; i < 4; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	r, done := dialSSE(t, srv.URL+"?last_event_id=2", 0)
	defer done()
	frames := readFrames(t, r, 2)
	if frames[0].ID != 3 || frames[1].ID != 4 {
		t.Fatalf("query-param replay ids = %d,%d, want 3,4", frames[0].ID, frames[1].ID)
	}
}

func TestSSEMultiSubscriber(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b, nil))
	defer srv.Close()

	const subs = 3
	var wg sync.WaitGroup
	ready := make(chan struct{}, subs)
	for s := 0; s < subs; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, done := dialSSE(t, srv.URL, 0)
			defer done()
			ready <- struct{}{}
			frames := readFrames(t, r, 4)
			last := uint64(0)
			for _, f := range frames {
				if f.ID <= last {
					t.Errorf("non-monotonic id %d after %d", f.ID, last)
				}
				last = f.ID
			}
		}()
	}
	for s := 0; s < subs; s++ {
		<-ready
	}
	// Each handler fixed its cursor before its handshake, so every
	// event emitted now reaches every stream.
	for i := 0; i < 4; i++ {
		b.Emit(Event{Type: JobFinished, N: 1})
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
}

// A client that never reads must not block Emit. Once it reads, its
// stream runs in order to the newest event: a client lapped by the ring
// resumes at the oldest retained event.
func TestSSESlowClientDoesNotBlockEmit(t *testing.T) {
	b := New(2048)
	srv := httptest.NewServer(Handler(b, nil))
	defer srv.Close()

	r, done := dialSSE(t, srv.URL, 0)
	defer done()

	// Emit far more than the ring plus any kernel socket buffering could
	// hold, without reading: Emit must return promptly every time.
	const flood = 5000
	emitted := make(chan struct{})
	go func() {
		for i := 0; i < flood; i++ {
			b.Emit(Event{Type: JobFinished, Name: "flood", N: 1})
		}
		close(emitted)
	}()
	select {
	case <-emitted:
	case <-time.After(10 * time.Second):
		t.Fatal("Emit blocked on a slow SSE client")
	}
	defer time.AfterFunc(10*time.Second, done).Stop()
	last := uint64(0)
	for last < flood {
		f := readFrames(t, r, 1)[0]
		if f.ID <= last {
			t.Fatalf("frame id %d after %d", f.ID, last)
		}
		last = f.ID
	}
}

// pipeWriter is a ResponseWriter over an io.Pipe: each write blocks
// until the test reads it, like a client that has stopped reading.
type pipeWriter struct {
	*io.PipeWriter
	hdr http.Header
}

func (p pipeWriter) Header() http.Header { return p.hdr }
func (p pipeWriter) WriteHeader(int)     {}
func (p pipeWriter) Flush()              {}

// A handler whose client stops reading mid-stream delivers, once the
// client reads again, every event emitted meanwhile, once each and in
// order: there is no per-reader buffer to overflow, only the ring.
func TestSSEStalledWriterLosesNothing(t *testing.T) {
	const stalled = 1000
	b := New(0)
	pr, pw := io.Pipe()
	defer time.AfterFunc(10*time.Second, func() { _ = pw.CloseWithError(errors.New("no frame for 10s")) }).Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan struct{})
	go func() {
		defer close(served)
		req := httptest.NewRequest(http.MethodGet, "/events", nil).WithContext(ctx)
		Handler(b, nil).ServeHTTP(pipeWriter{pw, http.Header{}}, req)
	}()
	r := bufio.NewReader(pr)
	if hs, err := r.ReadString('\n'); err != nil || hs != ": "+SchemaV1+"\n" {
		t.Fatalf("handshake = %q, %v", hs, err)
	}

	// Nothing reads while these are emitted, so the handler's first
	// frame write blocks and the rest wait in the ring.
	for i := 0; i <= stalled; i++ {
		b.Emit(Event{Type: JobCacheHit, N: int64(i)})
	}
	for i, f := range readFrames(t, r, stalled+1) {
		if f.ID != uint64(i+1) {
			t.Fatalf("frame %d has id %d, want %d", i, f.ID, i+1)
		}
	}
	cancel()
	<-served
	_ = pw.Close()
	if rest, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("stream continues past the last event: %q, %v", rest, err)
	}
}

// A Last-Event-ID beyond the bus's sequence comes from a client that
// outlived a restart of the emitting process. It counts as the current
// sequence: nothing is replayed, and every event emitted after the
// client connected follows.
func TestSSEStaleLastEventID(t *testing.T) {
	b := New(64)
	srv := httptest.NewServer(Handler(b, nil))
	defer srv.Close()
	for i := 0; i < 5; i++ {
		b.Emit(Event{Type: RunPhase})
	}

	r, done := dialSSE(t, srv.URL, 40)
	defer done()
	defer time.AfterFunc(10*time.Second, done).Stop()
	for i := 0; i < 3; i++ {
		b.Emit(Event{Type: JobFinished, N: int64(i)})
	}
	for i, f := range readFrames(t, r, 3) {
		if f.ID != uint64(6+i) || f.Event != string(JobFinished) {
			t.Fatalf("frame %d = id %d %s, want id %d job.finished", i, f.ID, f.Event, 6+i)
		}
	}
}

// Once done is closed a stream ends right after the events emitted
// before it closed, as a serve job's stream ends with its terminal
// event; a stream opened after that ends after its replay.
func TestSSEStreamEndsAtDone(t *testing.T) {
	b := New(64)
	done := make(chan struct{})
	srv := httptest.NewServer(Handler(b, done))
	defer srv.Close()
	b.Emit(Event{Type: RunStart})

	r, closeBody := dialSSE(t, srv.URL, 0)
	defer closeBody()
	b.Emit(Event{Type: RunPhase})
	b.Emit(Event{Type: RunFinish})
	close(done)
	for i, f := range readFrames(t, r, 3) {
		if f.ID != uint64(i+1) {
			t.Fatalf("frame %d has id %d, want %d", i, f.ID, i+1)
		}
	}
	if rest, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("stream continues past done: %q, %v", rest, err)
	}

	r, closeLate := dialSSE(t, srv.URL, 2)
	defer closeLate()
	if f := readFrames(t, r, 1)[0]; f.ID != 3 {
		t.Fatalf("late stream replays id %d, want 3", f.ID)
	}
	if rest, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("late stream continues past its replay: %q, %v", rest, err)
	}
}

func TestSSENilBusServesEmptyStream(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil))
	defer srv.Close()
	req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("nil-bus /events: %d, want 200", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, SchemaV1) {
		t.Errorf("handshake = %q, want schema comment", line)
	}
}
