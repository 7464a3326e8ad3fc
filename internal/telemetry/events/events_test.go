package events

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	b.Emit(Event{Type: RunStart, Name: "x"})
	b.AttachSink(nil)
	b.SetTraceID("x")
	if got := b.Seq(); got != 0 {
		t.Errorf("nil bus Seq() = %d, want 0", got)
	}
	if err := b.SinkErr(); err != nil {
		t.Errorf("nil bus SinkErr() = %v, want nil", err)
	}
	if evs, wake := b.Since(0, nil); evs != nil || wake != nil {
		t.Errorf("nil bus Since = (%v, %v), want nils", evs, wake)
	}
}

// The detached fast path must be free: ROADMAP item 2 (zero-overhead
// observability) depends on a nil bus costing nothing on every
// Emit call threaded through the engine and simulator hot paths.
func TestNilBusEmitZeroAllocs(t *testing.T) {
	var b *Bus
	e := Event{Type: JobFinished, Name: "w/x", Worker: 3, MS: 12, N: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Emit(e)
	})
	if allocs != 0 {
		t.Errorf("nil bus Emit: %v allocs/op, want 0", allocs)
	}
}

func TestEmitAssignsMonotonicSeq(t *testing.T) {
	b := New(8)
	for i := 0; i < 5; i++ {
		b.Emit(Event{Type: RunPhase, Name: "p"})
	}
	if got := b.Seq(); got != 5 {
		t.Fatalf("Seq() = %d, want 5", got)
	}
	evs, _ := b.Since(0, nil)
	if len(evs) != 5 {
		t.Fatalf("Since(0) returned %d events, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d has Seq %d, want %d", i, e.Seq, i+1)
		}
		if e.TMS == 0 {
			t.Errorf("event %d has zero timestamp", i)
		}
	}
}

func TestRingEvictsOldest(t *testing.T) {
	b := New(4)
	for i := 0; i < 10; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	evs, _ := b.Since(0, nil)
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Seqs 7..10 survive; 1..6 were evicted.
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Errorf("ring spans seq %d..%d, want 7..10", evs[0].Seq, evs[3].Seq)
	}
}

// TestRingGrowsWithEmits checks that a bus holds about what it emitted:
// the ring starts at 64 slots, doubles when full, and stops at its cap,
// where it keeps the newest cap events in order.
func TestRingGrowsWithEmits(t *testing.T) {
	b := New(0)
	k := 0
	for _, upTo := range []int{0, 1, 64, 65, 129, 1000, DefaultRingCap - 1} {
		for ; k < upTo; k++ {
			b.Emit(Event{Type: RunPhase})
		}
		if slots := len(b.ring); slots > max(64, 2*k) || slots < k {
			t.Errorf("after %d emits the ring has %d slots, want %d..%d", k, slots, k, max(64, 2*k))
		}
	}

	const ringCap, extra = 300, 57
	b = New(ringCap)
	for i := 0; i < ringCap+extra; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	if len(b.ring) != ringCap {
		t.Errorf("ring has %d slots after %d emits, want its cap %d", len(b.ring), ringCap+extra, ringCap)
	}
	evs, _ := b.Since(0, nil)
	if len(evs) != ringCap {
		t.Fatalf("ring replays %d events, want %d", len(evs), ringCap)
	}
	for i, e := range evs {
		if want := uint64(extra + 1 + i); e.Seq != want {
			t.Fatalf("replayed event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

// TestSubscriberSpansRingGrowth starts a reader before the ring grows
// and keeps it reading through several doublings and, at the cap, reads
// that straddle the ring's wrap point: it takes every event exactly
// once, in order.
func TestSubscriberSpansRingGrowth(t *testing.T) {
	b := New(1024)
	var seqs []uint64
	var evs []Event
	var wake <-chan struct{}
	cursor := uint64(0)
	for _, batch := range []int{10, 1, 5, 50, 100, 300, 700, 1000, 1000} {
		for i := 0; i < batch; i++ {
			b.Emit(Event{Type: RunPhase})
		}
		if wake != nil {
			select {
			case <-wake:
			default:
				t.Fatalf("%d emits left the wake-up channel open", batch)
			}
		}
		evs, wake = b.Since(cursor, evs[:0])
		for _, e := range evs {
			seqs = append(seqs, e.Seq)
			cursor = e.Seq
		}
	}
	if len(b.ring) != 1024 {
		t.Fatalf("ring has %d slots, want its cap 1024", len(b.ring))
	}
	if uint64(len(seqs)) != b.Seq() {
		t.Fatalf("reader took %d events, bus emitted %d", len(seqs), b.Seq())
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("event %d seen has seq %d, want %d", i, s, i+1)
		}
	}
	select {
	case <-wake:
		t.Errorf("wake-up channel closed with no new event")
	default:
	}
}

func TestReplaySinceFilters(t *testing.T) {
	b := New(16)
	for i := 0; i < 6; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	evs, _ := b.Since(4, nil)
	if len(evs) != 2 || evs[0].Seq != 5 || evs[1].Seq != 6 {
		t.Fatalf("Since(4) = %+v, want seqs 5,6", evs)
	}
	if got, _ := b.Since(6, nil); len(got) != 0 {
		t.Errorf("Since(6) = %+v, want empty", got)
	}
	// Since appends to the caller's buffer and keeps what it held.
	buf := []Event{{Type: RunStart}}
	if got, _ := b.Since(5, buf); len(got) != 2 || got[0].Type != RunStart || got[1].Seq != 6 {
		t.Errorf("Since(5, buf) = %+v, want the buffered event then seq 6", got)
	}
}

func TestSubscribeReceivesLiveEvents(t *testing.T) {
	b := New(16)
	b.Emit(Event{Type: RunStart, Name: "tool"})
	replay, wake := b.Since(0, nil)
	if len(replay) != 1 || replay[0].Type != RunStart {
		t.Fatalf("replay = %+v, want the run.start event", replay)
	}
	b.Emit(Event{Type: RunPhase, Name: "p1"})
	<-wake
	live, _ := b.Since(replay[0].Seq, nil)
	if len(live) != 1 || live[0].Type != RunPhase || live[0].Seq != 2 {
		t.Fatalf("live events = %+v, want run.phase seq 2", live)
	}
}

// The read and the arming of the wake-up must be atomic: every event
// after a read is either in it or closes its channel, so a reader that
// waits and reads again from its cursor finds the next event directly
// after its last, never a duplicate and never a hole. A writer hammers
// the bus (its ring holds every event, so nothing is evicted) while
// readers start one after another from the beginning.
func TestSubscribeReplayNoGapNoDup(t *testing.T) {
	const most = 1 << 14
	b := New(most)
	stop := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; i < most; i++ {
			select {
			case <-stop:
				return
			default:
				b.Emit(Event{Type: RunPhase})
			}
		}
	}()
	var buf []Event
	for i := 0; i < 20; i++ {
		replay, wake := b.Since(0, buf[:0])
		last := uint64(0)
		for _, e := range replay {
			if e.Seq != last+1 {
				t.Fatalf("read gap: %d after %d", e.Seq, last)
			}
			last = e.Seq
		}
		select {
		case <-wake:
		case <-stopped:
		}
		// The next read must start directly after the last one.
		live, _ := b.Since(last, replay[:0])
		if len(live) > 0 && live[0].Seq != last+1 {
			t.Fatalf("event seq %d does not follow the previous read's end %d", live[0].Seq, last)
		}
		buf = live
	}
	close(stop)
	<-stopped
}

func TestAttachSinkWritesNDJSON(t *testing.T) {
	b := New(8)
	var sb strings.Builder
	if err := WriteHeader(&sb, "test-tool"); err != nil {
		t.Fatal(err)
	}
	b.AttachSink(&sb)
	b.Emit(Event{Type: RunStart, Name: "test-tool"})
	b.Emit(Event{Type: JobFinished, Name: "w/x", Worker: 1, MS: 3, N: 1})
	if err := b.SinkErr(); err != nil {
		t.Fatalf("SinkErr: %v", err)
	}

	hdr, evs, err := ReadLog(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if hdr.Schema != SchemaV1 || hdr.Tool != "test-tool" {
		t.Errorf("header = %+v", hdr)
	}
	if len(evs) != 2 || evs[0].Type != RunStart || evs[1].Type != JobFinished {
		t.Fatalf("events = %+v", evs)
	}
	if evs[1].Worker != 1 || evs[1].MS != 3 || evs[1].N != 1 {
		t.Errorf("round-trip lost fields: %+v", evs[1])
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errWriteFailed
}

var errWriteFailed = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "write failed" }

func TestSinkErrorDetachesLogically(t *testing.T) {
	b := New(8)
	fw := &failWriter{}
	b.AttachSink(fw)
	b.Emit(Event{Type: RunPhase})
	b.Emit(Event{Type: RunPhase})
	if err := b.SinkErr(); err == nil {
		t.Fatal("SinkErr = nil after failing writes")
	}
	if fw.n != 1 {
		t.Errorf("sink written %d times after first failure, want 1", fw.n)
	}
	// The bus itself keeps working.
	if got := b.Seq(); got != 2 {
		t.Errorf("Seq() = %d, want 2", got)
	}
}

func TestReadLogToleratesTruncatedTail(t *testing.T) {
	log := `{"schema":"hifi_events_v1","tool":"t"}
{"seq":1,"t_ms":1,"type":"run.start","name":"t"}
{"seq":2,"t_ms":2,"type":"run.fin`
	hdr, evs, err := ReadLog(strings.NewReader(log))
	if err != nil {
		t.Fatalf("ReadLog on truncated tail: %v", err)
	}
	if hdr.Schema != SchemaV1 || len(evs) != 1 {
		t.Fatalf("hdr=%+v events=%d, want schema + 1 event", hdr, len(evs))
	}
}

func TestReadLogRejectsMidfileCorruption(t *testing.T) {
	log := `{"seq":1,"t_ms":1,"type":"run.start"}
not json at all
{"seq":3,"t_ms":3,"type":"run.finish"}`
	if _, _, err := ReadLog(strings.NewReader(log)); err == nil {
		t.Fatal("ReadLog accepted corruption followed by valid lines")
	}
}

// A log without a header keeps its first event, even one whose text
// mentions "schema"; a header after leading blank lines is still the
// header.
func TestReadLogKeepsHeaderlessFirstEvent(t *testing.T) {
	hdr, evs, err := ReadLog(strings.NewReader(headerlessLog))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if hdr != (Header{}) || len(evs) != 2 || evs[0].Name != "schema" || evs[1].Seq != 2 {
		t.Fatalf("hdr=%+v events=%+v, want no header and both events", hdr, evs)
	}

	hdr, evs, err = ReadLog(strings.NewReader("\n\n" + `{"schema":"hifi_events_v1","tool":"t"}
{"seq":1,"t_ms":1,"type":"run.start","name":"t"}`))
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if hdr.Schema != SchemaV1 || hdr.Tool != "t" || len(evs) != 1 || evs[0].Type != RunStart {
		t.Fatalf("hdr=%+v events=%+v, want the header and one run.start", hdr, evs)
	}
}

// headerlessLog starts directly with an event named "schema".
const headerlessLog = `{"seq":1,"t_ms":1,"type":"run.phase","name":"schema"}
{"seq":2,"t_ms":2,"type":"run.finish"}
`

// FuzzReadLog: no input panics ReadLog, and a log it accepts, written
// out again through WriteHeader and the sink's event encoder, reads back
// to the same tool and events.
func FuzzReadLog(f *testing.F) {
	f.Add(`{"schema":"hifi_events_v1","tool":"t"}
{"seq":1,"t_ms":1,"type":"run.start","name":"t"}
{"seq":2,"t_ms":2,"type":"run.fin`)
	f.Add(`{"seq":1,"t_ms":1,"type":"run.start"}
not json at all
{"seq":3,"t_ms":3,"type":"run.finish"}`)
	f.Add(`{"seq":4,"t_ms":9,"type":"job.finished","name":"w/x","trace_id":"0af7651916cd43dd8448eb211c80319c","worker":1,"n":2,"ms":3,"v":-0.5}

{"seq":5,"t_ms":10,"type":"fault.open","detail":"\u00e9\n","v":1e-300}
`)
	f.Add(headerlessLog)
	f.Fuzz(func(t *testing.T, log string) {
		hdr, evs, err := ReadLog(strings.NewReader(log))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteHeader(&sb, hdr.Tool); err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			line, err := appendJSON(nil, e)
			if err != nil {
				t.Fatal(err)
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
		hdr2, evs2, err := ReadLog(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("rewritten log rejected: %v\n%s", err, sb.String())
		}
		if hdr2.Schema != SchemaV1 || hdr2.Tool != hdr.Tool {
			t.Fatalf("header %+v read back as %+v", hdr, hdr2)
		}
		if !slices.Equal(evs, evs2) {
			t.Fatalf("events %+v read back as %+v", evs, evs2)
		}
	})
}

func TestCanonicalExcludesTimingFields(t *testing.T) {
	a := Event{Seq: 1, TMS: 111, Type: JobFinished, Name: "w/x", Worker: 2, MS: 9, N: 1, V: 0.5}
	b := Event{Seq: 7, TMS: 999, Type: JobFinished, Name: "w/x", Worker: 5, MS: 42, N: 1, V: 0.5}
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical forms differ:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	c := Event{Type: JobFinished, Name: "w/y", N: 1, V: 0.5}
	if a.Canonical() == c.Canonical() {
		t.Error("canonical form ignores Name")
	}
}

// Four readers follow the bus while four emitters write to it: each
// reader takes every sequence number once, in order, from a ring that
// holds them all.
func TestConcurrentEmitAndSubscribe(t *testing.T) {
	const emitters, readers, perEmitter = 4, 4, 200
	const total = emitters * perEmitter
	b := New(total)
	var wg sync.WaitGroup
	for w := 0; w < emitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				b.Emit(Event{Type: JobFinished, Worker: w})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Event
			cursor := uint64(0)
			for cursor < total {
				evs, wake := b.Since(cursor, buf[:0])
				for _, e := range evs {
					if e.Seq != cursor+1 {
						t.Errorf("reader took seq %d after %d", e.Seq, cursor)
						return
					}
					cursor = e.Seq
				}
				buf = evs
				if cursor < total {
					<-wake // an emitter still owes an event
				}
			}
		}()
	}
	wg.Wait()
	if got := b.Seq(); got != total {
		t.Errorf("Seq() = %d, want %d", got, total)
	}
}

// A reader that stalls while 1000 events are emitted catches up with
// every one of them, once each and in order, when the ring holds them;
// one lapped by the writer finds a full ring whose first id jumps past
// its cursor and whose ids then run without a hole to the newest.
func TestStalledReaderCatchesUp(t *testing.T) {
	const stalled = 1000
	for _, ringCap := range []int{DefaultRingCap, 256} {
		b := New(ringCap)
		b.Emit(Event{Type: RunStart})
		first, wake := b.Since(0, nil)
		cursor := first[0].Seq
		emitted := make(chan struct{})
		go func() {
			defer close(emitted)
			for i := 0; i < stalled; i++ {
				b.Emit(Event{Type: RunPhase})
			}
		}()
		<-wake
		<-emitted
		evs, _ := b.Since(cursor, nil)
		want := min(stalled, ringCap)
		if len(evs) != want {
			t.Fatalf("ring %d: caught up with %d events, want %d", ringCap, len(evs), want)
		}
		if jump := evs[0].Seq - cursor; (jump > 1) != (ringCap < stalled) {
			t.Errorf("ring %d: first id %d after cursor %d", ringCap, evs[0].Seq, cursor)
		}
		newest := uint64(stalled + 1)
		for i, e := range evs {
			if want := newest - uint64(len(evs)-1-i); e.Seq != want {
				t.Fatalf("ring %d: event %d has seq %d, want %d", ringCap, i, e.Seq, want)
			}
		}
	}
}
