package events

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// referenceFrame is an event's SSE frame as the stream rendered it
// with reflective encoding: json.Marshal, then fmt.
func referenceFrame(e Event) (string, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data), nil
}

var allTypes = []Type{
	RunStart, RunPhase, RunFinish,
	JobQueued, JobStarted, JobFinished, JobCacheHit, JobPanic, JobFailed,
	FaultOpen, FaultClose, FidelityVerdict,
	ServeJobAccepted, ServeJobDeduped, ServeJobRejected, ServeJobStarted,
	ServeJobFinished, ServeJobFailed, ServeJobCanceled, ServeJobRecovered,
	BenchRegression,
}

// awkwardStrings are text at the edges of encoding/json's string rules:
// HTML characters, the line and paragraph separators, invalid UTF-8,
// control bytes and newlines, quotes and backslashes.
var awkwardStrings = []string{
	"Racetrack/pECC-S/ideal:ferret",
	"<script>a && b</script>",
	"line\xe2\x80\xa8sep\xe2\x80\xa9para",
	"bad\xffutf8\xc3",
	"first line\nsecond line\r\n",
	"tab\tnul\x00bs\bff\fesc\x1bdel\x7f",
	`quote " and back\slash`,
	"é ü 日本",
}

// awkwardFloats are V values at the edges of encoding/json's float
// format: both zeros (left out), the 'e'-form cutoffs, subnormals.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 9.999999e-7, 1e-6, 1e21, -1e21, 9.99999e20,
	5e-324, 2.5e-310, 0.5, -2.25, 123456.789, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

// emitEveryShape emits every event type with and without its optional
// fields, awkward strings in name and detail and awkward floats in v.
func emitEveryShape(b *Bus) {
	for i, typ := range allTypes {
		b.Emit(Event{Type: typ})
		for j, s := range awkwardStrings {
			b.Emit(Event{
				Type: typ, Name: s, Detail: awkwardStrings[(i+j+1)%len(awkwardStrings)],
				TraceID: "0af7651916cd43dd8448eb211c80319c",
				Worker:  j - 3, N: int64(i*j) - 7, MS: int64(j) << 40,
				V: awkwardFloats[(i+j)%len(awkwardFloats)],
			})
		}
	}
	for _, v := range awkwardFloats {
		b.Emit(Event{Type: FidelityVerdict, Name: "fig17/adaptive-between", Detail: "pass", V: v})
	}
	b.Emit(Event{Type: JobFinished, Worker: math.MinInt, N: math.MinInt64, MS: math.MaxInt64})
}

// The stream's frames and the sink's lines are, byte for byte, what the
// reflective encoding wrote, and every frame carries its JSON on exactly
// one data line, which is how hifi-watch reads an event.
func TestFramesMatchReflectiveEncoding(t *testing.T) {
	b := New(0)
	var sink bytes.Buffer
	b.AttachSink(&sink)
	emitEveryShape(b)
	if err := b.SinkErr(); err != nil {
		t.Fatal(err)
	}
	evs, _ := b.Since(0, nil)

	want := ": " + SchemaV1 + "\n\n"
	var wantLines strings.Builder
	for _, e := range evs {
		frame, err := referenceFrame(e)
		if err != nil {
			t.Fatal(err)
		}
		want += frame
		line, _ := json.Marshal(e)
		wantLines.Write(line)
		wantLines.WriteByte('\n')
	}
	if len(want) < 8*sseChunk {
		t.Fatalf("the stream is %d bytes, too few to span several chunks", len(want))
	}

	done := make(chan struct{})
	close(done)
	rec := httptest.NewRecorder()
	Handler(b, done).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events", nil))
	if got := rec.Body.String(); got != want {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Fatalf("SSE body differs from the reflective rendering at byte %d:\n got %q\nwant %q",
			at, got[max(at-80, 0):min(at+80, len(got))], want[max(at-80, 0):min(at+80, len(want))])
	}
	if got := sink.String(); got != wantLines.String() {
		t.Fatalf("NDJSON lines differ from json.Marshal's:\n got %q\nwant %q", got, wantLines.String())
	}

	frames := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n\n"), "\n\n")[1:]
	if len(frames) != len(evs) {
		t.Fatalf("%d frames for %d events", len(frames), len(evs))
	}
	for i, f := range frames {
		if n := strings.Count("\n"+f, "\ndata:"); n != 1 || strings.Count(f, "\n") != 2 {
			t.Fatalf("frame %d has %d data lines in %d lines, want 1 in 3:\n%s", i, n, strings.Count(f, "\n")+1, f)
		}
	}
}

// A frame that fails to encode writes nothing, and the stream ends
// there: the frames before it go out, none after it.
func TestStreamEndsAtUnencodableEvent(t *testing.T) {
	b := New(0)
	b.Emit(Event{Type: RunStart, Name: "t"})
	b.Emit(Event{Type: FidelityVerdict, Name: "nan", V: math.NaN()})
	b.Emit(Event{Type: RunFinish, Name: "t"})
	first, _ := b.Since(0, nil)
	frame, err := referenceFrame(first[0])
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	Handler(b, nil).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/events", nil))
	if got, want := rec.Body.String(), ": "+SchemaV1+"\n\n"+frame; got != want {
		t.Fatalf("body = %q, want %q", got, want)
	}
}

// countingWriter is a ResponseWriter that keeps nothing and counts its
// writes and flushes.
type countingWriter struct {
	hdr                    http.Header
	writes, flushes, bytes int
}

func (w *countingWriter) Header() http.Header { return w.hdr }
func (w *countingWriter) WriteHeader(int)     {}
func (w *countingWriter) Flush()              { w.flushes++ }
func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// emitWarmBurst emits what a warm resubmission of a seven-experiment
// sweep streams on its job's bus: 812 events, 401 job.queued and 401
// job.cache_hit among 7 run.phase and 3 serve.job.*, each stamped with
// the submission's trace ID.
func emitWarmBurst(b *Bus) {
	b.SetTraceID("0af7651916cd43dd8448eb211c80319c")
	b.Emit(Event{Type: ServeJobAccepted, Name: "j-000001", Detail: "7b563554d0e1f2a3"})
	b.Emit(Event{Type: ServeJobStarted, Name: "j-000001"})
	for x := 0; x < 7; x++ {
		b.Emit(Event{Type: RunPhase, Name: fmt.Sprintf("fig%d", 10+x)})
		jobs := 401 / 7
		if x < 401%7 {
			jobs++
		}
		for i := 0; i < jobs; i++ {
			b.Emit(Event{Type: JobQueued, Name: fmt.Sprintf("Racetrack/pECC-S/ideal:w%02d", i), N: int64(jobs)})
		}
		for i := 0; i < jobs; i++ {
			b.Emit(Event{Type: JobCacheHit, Name: fmt.Sprintf("Racetrack/pECC-S/ideal:w%02d", i)})
		}
	}
	b.Emit(Event{Type: ServeJobFinished, Name: "j-000001", MS: 4, N: 7})
}

// Streaming a warm burst allocates a small constant, whatever the
// number of events: the frames are encoded into one reused buffer,
// written about every 4 KiB and at the end of the batch, and flushed
// once after the handshake and once after the batch.
func TestStreamAllocatesConstant(t *testing.T) {
	b := New(0)
	emitWarmBurst(b)
	if b.Seq() != 812 {
		t.Fatalf("burst has %d events, want 812", b.Seq())
	}
	done := make(chan struct{})
	close(done)
	h := Handler(b, done)
	req := httptest.NewRequest(http.MethodGet, "/events", nil)
	w := &countingWriter{hdr: http.Header{}}

	h.ServeHTTP(w, req)
	if w.flushes != 2 {
		t.Errorf("%d flushes, want 2: the handshake's and the batch's", w.flushes)
	}
	// The handshake, a write each time the buffer passes sseChunk, and
	// the rest of the batch.
	if most := 2 + w.bytes/sseChunk; w.writes > most || w.writes < most-1 {
		t.Errorf("%d writes for %d bytes, want %d or %d", w.writes, w.bytes, most-1, most)
	}

	const limit = 16
	if n := testing.AllocsPerRun(20, func() { h.ServeHTTP(w, req) }); n > limit {
		t.Errorf("streaming 812 events allocates %v times, want at most %d", n, limit)
	}
}

// FuzzEventJSON holds appendJSON to json.Marshal: for any field values
// the bytes are equal, and a NaN or infinite V fails both with the same
// error.
func FuzzEventJSON(f *testing.F) {
	f.Add(uint64(1), int64(1754649600000), string(JobQueued), "Racetrack/pECC-S/ideal:ferret", "", "0af7651916cd43dd8448eb211c80319c", 0, int64(401), int64(0), 0.0)
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64), string(JobFailed), "", "boom\nat line 2", "", -1, int64(math.MaxInt64), int64(-5), -0.0)
	for i, s := range awkwardStrings {
		f.Add(uint64(i), int64(i), s, s, awkwardStrings[(i+1)%len(awkwardStrings)], s, i, int64(i), int64(i), awkwardFloats[i])
	}
	for i, v := range append(awkwardFloats, math.NaN(), math.Inf(1), math.Inf(-1)) {
		f.Add(uint64(i), int64(0), string(FaultOpen), "memsim:ferret", "", "", 0, int64(i), int64(0), v)
	}
	f.Fuzz(func(t *testing.T, seq uint64, tms int64, typ, name, detail, trace string, worker int, n, ms int64, v float64) {
		e := Event{Seq: seq, TMS: tms, Type: Type(typ), Name: name, Detail: detail, TraceID: trace, Worker: worker, N: n, MS: ms, V: v}
		want, wantErr := json.Marshal(e)
		got, err := appendJSON(nil, e)
		if wantErr != nil || err != nil {
			var unsupported *json.UnsupportedValueError
			if !errors.As(err, &unsupported) || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("error %v, json.Marshal's %v", err, wantErr)
			}
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				t.Fatalf("finite v %v failed: %v", v, err)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding differs from json.Marshal's:\n got %s\nwant %s", got, want)
		}
	})
}
