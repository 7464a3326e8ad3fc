package trace

import "sync"

// StreamsBudget is the most record bytes one Streams keeps: at 8 bytes an
// access, 10 of the 12 PARSEC workloads' four-core streams at 200k
// accesses a core. Streams that arrive after the budget is spent are
// generated and not kept.
const StreamsBudget = 64 << 20

// Streams stores the access streams of one experiment, so that the
// simulations comparing schemes or technologies on the same workload
// generate each stream once and replay it after that. The first
// simulation to draw a stream packs it at 8 bytes an access; once it has
// drawn the whole stream the store keeps it, and later Source calls for
// the same key replay it.
//
// A record is a uint64: the line index (Addr/LineBytes) in the high 32
// bits, and gap<<1 | write in the low 32; trace files hold the same
// records. A stream with an access that does not fit — unaligned, a line
// ≥ 2^32 or a gap outside [0, 2^31) — is never kept, and every Source
// call for it generates it.
//
// Nothing waits: a Source call for a stream another caller is still
// drawing generates it too, and whichever finishes first is kept. Which
// calls replay depends on scheduling; what they yield does not. Safe for
// concurrent use.
type Streams struct {
	mu sync.Mutex
	// kept maps a key to its records; a nil entry marks a stream that
	// does not fit the record format.
	kept      map[streamKey][]uint64
	bytes     int64 // record bytes kept
	limit     int64
	generated int
	replayed  int
}

// streamKey identifies one core's stream: NewGenerator(w, core, seed)
// drawn n times. The whole Workload is part of it, since a scaled roster
// shares names with the full one.
type streamKey struct {
	w    Workload
	core int
	seed uint64
	n    int
}

// NewStreams returns an empty store bounded by StreamsBudget.
func NewStreams() *Streams { return newStreams(StreamsBudget) }

func newStreams(limit int64) *Streams {
	return &Streams{kept: map[streamKey][]uint64{}, limit: limit}
}

// Source returns the stream NewGenerator(w, core, seed) yields, for a
// caller that draws exactly n accesses from it: a replay when the store
// holds the stream, otherwise a generator that offers the stream to the
// store once it has yielded all n. A replay panics if drawn more than n
// times.
func (s *Streams) Source(w Workload, core int, seed uint64, n int) interface{ Next() Access } {
	key := streamKey{w, core, seed, n}
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, seen := s.kept[key]
	if recs != nil {
		s.replayed++
		return NewReplay(recs)
	}
	s.generated++
	g := NewGenerator(w, core, seed)
	if seen || n <= 0 || s.bytes+8*int64(n) > s.limit {
		return g
	}
	return &recorder{g: g, s: s, key: key, recs: make([]uint64, 0, n)}
}

// Counts returns how many Source calls generated their stream and how
// many replayed a kept one.
func (s *Streams) Counts() (generated, replayed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generated, s.replayed
}

// keep stores a complete stream unless one is already kept under key or
// the budget cannot take it.
func (s *Streams) keep(key streamKey, recs []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.kept[key]; ok {
		return
	}
	if recs == nil {
		s.kept[key] = nil
		return
	}
	if b := 8 * int64(len(recs)); s.bytes+b <= s.limit {
		s.kept[key] = recs
		s.bytes += b
	}
}

// pack encodes a into one record, reporting false when it does not fit.
func pack(a Access) (uint64, bool) {
	line := a.Addr / LineBytes
	if a.Addr%LineBytes != 0 || line >= 1<<32 || a.Gap < 0 || a.Gap >= 1<<31 {
		return 0, false
	}
	rec := line<<32 | uint64(a.Gap)<<1
	if a.Write {
		rec |= 1
	}
	return rec, true
}

func unpack(rec uint64) Access {
	return Access{Addr: rec >> 32 * LineBytes, Write: rec&1 != 0, Gap: int(uint32(rec) >> 1)}
}

// recorder generates a stream and packs it as it goes; it hands the
// records to the store after the last access of the stream.
type recorder struct {
	g    *Generator
	s    *Streams
	key  streamKey
	recs []uint64 // nil once handed over
}

func (r *recorder) Next() Access {
	a := r.g.Next()
	if r.recs == nil {
		return a
	}
	rec, ok := pack(a)
	if !ok {
		r.recs = nil
		r.s.keep(r.key, nil)
		return a
	}
	r.recs = append(r.recs, rec)
	if len(r.recs) == r.key.n {
		r.s.keep(r.key, r.recs)
		r.recs = nil
	}
	return a
}

// Replay yields packed records as accesses, in order: a stream Streams
// kept, or a trace ReadTrace read. It never wraps: its caller draws at
// most len(recs) accesses, and one more panics.
type Replay struct {
	recs []uint64
	i    int
}

// NewReplay returns a Replay of recs.
func NewReplay(recs []uint64) *Replay { return &Replay{recs: recs} }

// Next returns the next record's access.
func (r *Replay) Next() Access {
	a := unpack(r.recs[r.i])
	r.i++
	return a
}
