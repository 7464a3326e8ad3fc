package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestNilTracer(t *testing.T) {
	var tr *Tracer
	tr.Emit(EventShift, 1, 2, 3, 4)
	if tr.Len() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer must be inert")
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Emitted uint64            `json:"emitted"`
		Dropped uint64            `json:"dropped"`
		Events  []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Emitted != 0 || doc.Dropped != 0 || len(doc.Events) != 0 {
		t.Fatalf("nil tracer JSON = %s", b.String())
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(EventShift, uint64(i), int64(i), 0, 0)
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	// Oldest-first: the four retained events are seq 6..9.
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d seq = %d, want %d (events %v)", i, e.Seq, want, evs)
		}
	}
}

func TestTracerBelowCapacity(t *testing.T) {
	tr := NewTracer(8)
	tr.Emit(EventEviction, 100, 1, 2, 1)
	tr.Emit(EventPromoFlush, 200, 3, 0, 0)
	if tr.Len() != 2 || tr.Dropped() != 0 {
		t.Fatalf("Len/Dropped = %d/%d", tr.Len(), tr.Dropped())
	}
	evs := tr.Events()
	if evs[0].Kind != EventEviction || evs[1].Kind != EventPromoFlush {
		t.Fatalf("events out of order: %v", evs)
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("sequence numbers wrong: %v", evs)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(1 << 12)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Emit(EventShift, uint64(i), 1, 2, 3)
			}
		}()
	}
	wg.Wait()
	if got := tr.Len(); got != workers*perWorker {
		t.Fatalf("Len = %d, want %d", got, workers*perWorker)
	}
	seen := map[uint64]bool{}
	for _, e := range tr.Events() {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
}

func TestEventJSONKindSymbolic(t *testing.T) {
	e := Event{Seq: 5, Cycle: 9, Kind: EventPromoFlush, Arg0: 4, Arg1: -1, Arg2: 1}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":5,"cycle":9,"kind":"promo-flush","arg0":4,"arg1":-1,"arg2":1}`
	if string(b) != want {
		t.Fatalf("got %s, want %s", b, want)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EventShift:      "shift",
		EventEviction:   "eviction",
		EventPromoFlush: "promo-flush",
		EventKind(99):   "kind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestTracerWriteJSONRoundTrip(t *testing.T) {
	tr := NewTracer(2)
	tr.Emit(EventShift, 1, 0, 3, 2)
	tr.Emit(EventEviction, 2, 1, 0, 0)
	tr.Emit(EventPromoFlush, 3, 2, 0, 0) // overwrites the shift
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Emitted uint64 `json:"emitted"`
		Dropped uint64 `json:"dropped"`
		Events  []struct {
			Seq  uint64 `json:"seq"`
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Emitted != 3 || doc.Dropped != 1 || len(doc.Events) != 2 {
		t.Fatalf("envelope = %+v", doc)
	}
	if doc.Events[0].Kind != "eviction" || doc.Events[1].Kind != "promo-flush" {
		t.Fatalf("events = %+v", doc.Events)
	}
}

func BenchmarkTracerEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(EventShift, uint64(i), 1, 2, 3)
	}
}

func BenchmarkTracerEmitEnabled(b *testing.B) {
	tr := NewTracer(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(EventShift, uint64(i), 1, 2, 3)
	}
}
