package events

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"racetrack/hifi/internal/telemetry"
)

func TestNilBusIsSafe(t *testing.T) {
	var b *Bus
	b.Emit(Event{Type: RunStart, Name: "x"})
	b.AttachSink(nil)
	b.Instrument(nil)
	if got := b.Seq(); got != 0 {
		t.Errorf("nil bus Seq() = %d, want 0", got)
	}
	if got := b.Dropped(); got != 0 {
		t.Errorf("nil bus Dropped() = %d, want 0", got)
	}
	if err := b.SinkErr(); err != nil {
		t.Errorf("nil bus SinkErr() = %v, want nil", err)
	}
	if got := b.ReplaySince(0); got != nil {
		t.Errorf("nil bus ReplaySince = %v, want nil", got)
	}
	replay, ch, cancel := b.Subscribe(0, 0)
	if replay != nil || ch != nil {
		t.Errorf("nil bus Subscribe = (%v, %v), want nils", replay, ch)
	}
	cancel() // must not panic
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
	evs := b.ReplaySince(0)
	if len(evs) != 5 {
		t.Fatalf("ReplaySince(0) returned %d events, want 5", len(evs))
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
	evs := b.ReplaySince(0)
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
	evs := b.ReplaySince(0)
	if len(evs) != ringCap {
		t.Fatalf("ring replays %d events, want %d", len(evs), ringCap)
	}
	for i, e := range evs {
		if want := uint64(extra + 1 + i); e.Seq != want {
			t.Fatalf("replayed event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
}

// TestSubscriberSpansRingGrowth subscribes before the ring grows and
// stays through several doublings: replay plus live delivery carry every
// event exactly once, in order.
func TestSubscriberSpansRingGrowth(t *testing.T) {
	b := New(1024)
	for i := 0; i < 10; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	replay, ch, cancel := b.Subscribe(0, 1000)
	defer cancel()
	for i := 0; i < 500; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	if len(b.ring) != 512 {
		t.Fatalf("ring has %d slots after 510 emits, want 512", len(b.ring))
	}
	seqs := make([]uint64, 0, 510)
	for _, e := range replay {
		seqs = append(seqs, e.Seq)
	}
	for len(seqs) < 510 {
		seqs = append(seqs, (<-ch).Seq)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("event %d seen has seq %d, want %d", i, s, i+1)
		}
	}
	select {
	case e := <-ch:
		t.Errorf("extra event delivered: seq %d", e.Seq)
	default:
	}
}

func TestReplaySinceFilters(t *testing.T) {
	b := New(16)
	for i := 0; i < 6; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	evs := b.ReplaySince(4)
	if len(evs) != 2 || evs[0].Seq != 5 || evs[1].Seq != 6 {
		t.Fatalf("ReplaySince(4) = %+v, want seqs 5,6", evs)
	}
	if got := b.ReplaySince(6); len(got) != 0 {
		t.Errorf("ReplaySince(6) = %+v, want empty", got)
	}
}

func TestSubscribeReceivesLiveEvents(t *testing.T) {
	b := New(16)
	b.Emit(Event{Type: RunStart, Name: "tool"})
	replay, ch, cancel := b.Subscribe(0, 8)
	defer cancel()
	if len(replay) != 1 || replay[0].Type != RunStart {
		t.Fatalf("replay = %+v, want the run.start event", replay)
	}
	b.Emit(Event{Type: RunPhase, Name: "p1"})
	e := <-ch
	if e.Type != RunPhase || e.Seq != 2 {
		t.Fatalf("live event = %+v, want run.phase seq 2", e)
	}
}

// Replay and registration must be atomic: no event may be both replayed
// and delivered live, and none may fall between. Hammer the bus from a
// writer goroutine while subscribing repeatedly and check each
// subscriber sees a gapless, duplicate-free sequence.
func TestSubscribeReplayNoGapNoDup(t *testing.T) {
	b := New(1024)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b.Emit(Event{Type: RunPhase})
			}
		}
	}()
	for i := 0; i < 20; i++ {
		replay, ch, cancel := b.Subscribe(0, 1024)
		last := uint64(0)
		for _, e := range replay {
			if e.Seq != last+1 && last != 0 {
				// A ring eviction can truncate the front of the replay, but
				// within the replay the sequence must be gapless.
				t.Fatalf("replay gap: %d after %d", e.Seq, last)
			}
			last = e.Seq
		}
		// The first live event must directly follow the replay.
		if e, ok := <-ch; ok {
			if last != 0 && e.Seq != last+1 {
				t.Fatalf("live event seq %d does not follow replay end %d", e.Seq, last)
			}
		}
		cancel()
	}
	close(stop)
	wg.Wait()
}

func TestSlowSubscriberDropsAndCounts(t *testing.T) {
	b := New(64)
	reg := telemetry.NewRegistry()
	b.Instrument(reg)
	_, _, cancel := b.Subscribe(0, 2) // tiny buffer, never read
	defer cancel()
	for i := 0; i < 10; i++ {
		b.Emit(Event{Type: RunPhase})
	}
	// 2 buffered, 8 dropped.
	if got := b.Dropped(); got != 8 {
		t.Fatalf("Dropped() = %d, want 8", got)
	}
	if v, ok := reg.Snapshot().Lookup(telemetry.MetricEventsDropped); !ok || v != 8 {
		t.Errorf("registry %s = %v (present=%v), want 8", telemetry.MetricEventsDropped, v, ok)
	}
}

func TestCancelIsIdempotentAndClosesChannel(t *testing.T) {
	b := New(8)
	_, ch, cancel := b.Subscribe(0, 2)
	cancel()
	cancel() // second cancel must not panic (double close)
	if _, ok := <-ch; ok {
		t.Error("channel still open after cancel")
	}
	b.Emit(Event{Type: RunPhase}) // must not panic on the removed sub
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

// FuzzReadLog: no input panics ReadLog, and a log it accepts, written
// out again through WriteHeader and the sink's NDJSON writer, reads back
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
			if err := writeNDJSON(&sb, e); err != nil {
				t.Fatal(err)
			}
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

func TestConcurrentEmitAndSubscribe(t *testing.T) {
	b := New(256)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Emit(Event{Type: JobFinished, Worker: w})
			}
		}(w)
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay, ch, cancel := b.Subscribe(0, 16)
			// Receive one event from whichever side the subscribe raced
			// into: an empty replay means seq was 0 at subscribe time,
			// so every emit lands after us and a live delivery is
			// guaranteed.
			if len(replay) == 0 {
				<-ch
			}
			cancel()
		}()
	}
	wg.Wait()
	if got := b.Seq(); got != 800 {
		t.Errorf("Seq() = %d, want 800", got)
	}
}
