package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

// readBack writes accesses as a trace, reads it back and replays it.
func readBack(t *testing.T, accesses []Access) []Access {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, accesses); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(accesses) {
		t.Fatalf("read %d records, wrote %d", len(recs), len(accesses))
	}
	return drain(NewReplay(recs), len(recs))
}

func TestTraceRoundTrip(t *testing.T) {
	w, _ := ByName("ferret")
	orig := NewGenerator(w, 0, 99).Take(5000)
	sameAccesses(t, "read trace", readBack(t, orig), orig)
}

func TestTraceRoundTripEmpty(t *testing.T) {
	readBack(t, nil)
}

// A trace file's body is byte for byte the records a Streams keeps for
// the same accesses, and it replays through the same Replay.
func TestTraceFileHoldsKeptRecords(t *testing.T) {
	w, _ := ByName("canneal")
	const n = 3_000
	s := NewStreams()
	accesses := drain(s.Source(w, 2, 5, n), n)
	kept := s.Source(w, 2, 5, n)
	if _, ok := kept.(*Replay); !ok {
		t.Fatalf("second Source is %T, want a replay", kept)
	}
	var file bytes.Buffer
	if err := WriteTrace(&file, accesses); err != nil {
		t.Fatal(err)
	}
	var body []byte
	for _, rec := range s.kept[streamKey{w, 2, 5, n}] {
		body = binary.LittleEndian.AppendUint64(body, rec)
	}
	if got := file.Bytes()[headerLen:]; !bytes.Equal(got, body) {
		t.Fatalf("trace body (%d bytes) differs from the %d bytes of kept records", len(got), len(body))
	}
	recs, err := ReadTrace(&file)
	if err != nil {
		t.Fatal(err)
	}
	sameAccesses(t, "kept stream", drain(kept, n), accesses)
	sameAccesses(t, "read trace", drain(NewReplay(recs), len(recs)), accesses)
}

// WriteTrace refuses what a record cannot hold, as pack does, and
// writes nothing then.
func TestWriteTraceRejectsUnaligned(t *testing.T) {
	for _, a := range []Access{
		{Addr: 13},
		{Addr: 1 << 32 * LineBytes},
		{Gap: 1 << 31},
	} {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, []Access{{}, a}); err == nil || buf.Len() != 0 {
			t.Errorf("%+v: err = %v, %d bytes written; want an error and none", a, err, buf.Len())
		}
	}
}

// v1 is the header of an empty version-1 (varint-delta) trace.
const v1 = "HFTR\x01\x00\x00\x00\x00\x00\x00\x00\x00"

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"HFTR", // truncated after magic
		v1,
		"HFTR\x03" + strings.Repeat("\x00", 8), // unknown version
		"HFTR\x02\x05\x00\x00\x00\x00\x00\x00\x00",         // count 5, no records
		"HFTR\x02\x01\x00\x00\x00\x00\x00\x00\x00\x40\x00", // a record cut short
	}
	for i, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("case %d: err = %v, want ErrBadTrace", i, err)
		}
	}
	if _, err := ReadTrace(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Errorf("v1 trace: err = %v, want unsupported version 1", err)
	}
}

// countClaim is a 13-byte trace whose header claims 2^32 records.
const countClaim = "HFTR\x02\x00\x00\x00\x00\x01\x00\x00\x00"

func TestReadTraceRejectsHugeCount(t *testing.T) {
	hdr := "HFTR\x02\xff\xff\xff\xff\xff\xff\xff\xff"
	if _, err := ReadTrace(strings.NewReader(hdr)); err == nil {
		t.Fatal("implausible count accepted")
	}
	// A count the header may claim but the stream does not hold is an
	// error, not a 32 GiB preallocation.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadTrace(strings.NewReader(countClaim)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated 2^32-record trace: err = %v", err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 8<<20 {
		t.Fatalf("reading a 13-byte trace allocated %d bytes", n)
	}
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes: it must never panic, it
// must refuse every version but 2, and any trace it accepts must write
// back as the input's leading 13 + 8n bytes. The seeds are a short
// recorded trace, TestReadTraceRejectsHugeCount's count claim, one
// all-ones record (the top line, the top gap, a write) and an empty v1
// trace.
func FuzzReadTrace(f *testing.F) {
	w, _ := ByName("ferret")
	var rec bytes.Buffer
	if err := WriteTrace(&rec, NewGenerator(w, 0, 1).Take(16)); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add([]byte(countClaim))
	f.Add([]byte("HFTR\x02\x01\x00\x00\x00\x00\x00\x00\x00" + strings.Repeat("\xff", 8)))
	f.Add([]byte(v1))
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v is not ErrBadTrace", err)
			}
			return
		}
		if in[len(traceMagic)] != traceVersion {
			t.Fatalf("version %d accepted", in[len(traceMagic)])
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, drain(NewReplay(recs), len(recs))); err != nil {
			t.Fatalf("accepted trace does not write back: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), in[:headerLen+8*len(recs)]) {
			t.Fatalf("%d records write back as %x, read from %x", len(recs), buf.Bytes(), in)
		}
	})
}

func TestQuickTraceRoundTrip(t *testing.T) {
	f := func(lines []uint32, writes []bool, gaps []uint8) bool {
		n := min(len(lines), len(writes), len(gaps))
		in := make([]Access, n)
		for i := range in {
			in[i] = Access{
				Addr:  uint64(lines[i]) * LineBytes,
				Write: writes[i],
				Gap:   int(gaps[i]),
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, in); err != nil {
			return false
		}
		recs, err := ReadTrace(&buf)
		if err != nil || len(recs) != n {
			return false
		}
		out := drain(NewReplay(recs), n)
		for i := range out {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
