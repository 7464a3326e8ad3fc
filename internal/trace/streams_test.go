package trace

import (
	"sync"
	"testing"
)

// drain draws n accesses from src.
func drain(src interface{ Next() Access }, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

func sameAccesses(t *testing.T, what string, got, want []Access) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: access %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func counts(t *testing.T, s *Streams, gen, rep int) {
	t.Helper()
	if g, r := s.Counts(); g != gen || r != rep {
		t.Errorf("Counts() = %d generated, %d replayed; want %d, %d", g, r, gen, rep)
	}
}

func TestStreamsKeepThenReplay(t *testing.T) {
	w, _ := ByName("canneal")
	const n = 5_000
	want := NewGenerator(w, 1, 7).Take(n)
	s := NewStreams()
	sameAccesses(t, "first draw", drain(s.Source(w, 1, 7, n), n), want)
	src := s.Source(w, 1, 7, n)
	if _, ok := src.(*Replay); !ok {
		t.Fatalf("second Source is %T, want a replay", src)
	}
	sameAccesses(t, "replay", drain(src, n), want)
	counts(t, s, 1, 1)

	// Every part of the key selects its own stream.
	other := w
	other.WorkingSetB >>= 7
	for _, k := range []streamKey{{other, 1, 7, n}, {w, 2, 7, n}, {w, 1, 8, n}, {w, 1, 7, n - 1}} {
		if _, ok := s.Source(k.w, k.core, k.seed, k.n).(*Replay); ok {
			t.Errorf("key %+v replayed another key's stream", k)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("a replay drawn past its length did not panic")
		}
	}()
	drain(src, 1)
}

func TestStreamsIncompleteDrawIsNotKept(t *testing.T) {
	w, _ := ByName("vips")
	s := NewStreams()
	drain(s.Source(w, 0, 1, 100), 99)
	if _, ok := s.Source(w, 0, 1, 100).(*Replay); ok {
		t.Error("a stream drawn 99 of 100 times was kept")
	}
}

func TestStreamsNeverKeepAGapPast31Bits(t *testing.T) {
	w, _ := ByName("swaptions")
	w.PhasePeriod = 50
	w.PhaseGapMean = 1e12
	const n = 400
	want := NewGenerator(w, 0, 1).Take(n)
	big := false
	for _, a := range want {
		big = big || a.Gap >= 1<<31
	}
	if !big {
		t.Fatal("fixture draws no gap of 2^31 or more")
	}
	s := NewStreams()
	for i := 0; i < 3; i++ {
		src := s.Source(w, 0, 1, n)
		if _, ok := src.(*Replay); ok {
			t.Fatalf("draw %d replayed a stream that does not fit", i)
		}
		sameAccesses(t, "unfit stream", drain(src, n), want)
	}
	counts(t, s, 3, 0)
}

func TestPackRejectsWhatDoesNotFit(t *testing.T) {
	for _, a := range []Access{
		{Addr: 65},
		{Addr: 1 << 32 * LineBytes},
		{Gap: 1 << 31},
		{Gap: -1},
	} {
		if _, ok := pack(a); ok {
			t.Errorf("pack(%+v) fit", a)
		}
	}
	for _, a := range []Access{
		{},
		{Addr: (1<<32 - 1) * LineBytes, Write: true, Gap: 1<<31 - 1},
		{Addr: 458_751 * LineBytes, Gap: 12_000_000},
	} {
		rec, ok := pack(a)
		if !ok || unpack(rec) != a {
			t.Errorf("pack(%+v) = %#x, %v; unpacks to %+v", a, rec, ok, unpack(rec))
		}
	}
}

func TestStreamsBudget(t *testing.T) {
	ws := PARSEC()
	const n = 1_000
	s := newStreams(2 * 8 * n) // room for two streams
	for _, w := range ws[:3] {
		drain(s.Source(w, 0, 1, n), n)
	}
	for i, w := range ws[:3] {
		_, replayed := s.Source(w, 0, 1, n).(*Replay)
		if replayed != (i < 2) {
			t.Errorf("%s: replayed = %v, want %v", w.Name, replayed, i < 2)
		}
	}
	if s.bytes != 2*8*n {
		t.Errorf("store holds %d record bytes, want %d", s.bytes, 2*8*n)
	}
	// Once full, the store does not even record a new stream.
	if _, ok := s.Source(ws[3], 0, 1, n).(*Generator); !ok {
		t.Error("a full store recorded a new stream")
	}
	counts(t, s, 5, 2)

	// Two streams recorded side by side into room for one: the first to
	// finish is kept, the second is dropped.
	s = newStreams(8 * n)
	a, b := s.Source(ws[0], 0, 1, n), s.Source(ws[1], 0, 1, n)
	drain(a, n)
	drain(b, n)
	if s.bytes != 8*n {
		t.Errorf("store holds %d record bytes, want its limit %d", s.bytes, 8*n)
	}
	if _, ok := s.Source(ws[1], 0, 1, n).(*Replay); ok {
		t.Error("a stream finished after the budget was spent was kept")
	}
}

// TestStreamsConcurrent draws the same few streams from many goroutines
// at once: every draw must equal a fresh generator's, whichever caller
// recorded or replayed. Run under -race.
func TestStreamsConcurrent(t *testing.T) {
	ws := PARSEC()[:3]
	const n, per = 2_000, 4
	want := make([][]Access, len(ws))
	for i, w := range ws {
		want[i] = NewGenerator(w, 0, 1).Take(n)
	}
	s := NewStreams()
	var wg sync.WaitGroup
	errs := make(chan string, len(ws)*per)
	for r := 0; r < per; r++ {
		for i, w := range ws {
			wg.Add(1)
			go func(i int, w Workload) {
				defer wg.Done()
				got := drain(s.Source(w, 0, 1, n), n)
				for j := range got {
					if got[j] != want[i][j] {
						errs <- w.Name
						return
					}
				}
			}(i, w)
		}
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s: a concurrent draw differs from a fresh generator", name)
	}
	if g, r := s.Counts(); g+r != len(ws)*per || g < len(ws) {
		t.Errorf("Counts() = %d generated, %d replayed over %d draws of %d streams", g, r, len(ws)*per, len(ws))
	}
	for _, w := range ws {
		if _, ok := s.Source(w, 0, 1, n).(*Replay); !ok {
			t.Errorf("%s: not kept after concurrent draws", w.Name)
		}
	}
}
