package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceRoundTrip(t *testing.T) {
	w, _ := ByName("ferret")
	orig := NewGenerator(w, 0, 99).Take(5000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("length %d != %d", len(got), len(orig))
	}
	for i := range got {
		if got[i] != orig[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], orig[i])
		}
	}
}

func TestTraceRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d records", len(got))
	}
}

func TestWriteTraceRejectsUnaligned(t *testing.T) {
	var buf bytes.Buffer
	err := WriteTrace(&buf, []Access{{Addr: 13}})
	if err == nil {
		t.Fatal("unaligned address accepted")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"XXXX",
		"HFTR",                              // truncated after magic
		"HFTR\x02" + strings.Repeat("0", 8), // bad version
		"HFTR\x01\x05\x00\x00\x00\x00\x00\x00\x00", // count 5, no records
		string(lineOverflow),                       // line 2^58: address 2^64 wraps to 0
	}
	for i, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// lineOverflow is one record whose line, 2^58, has no 64-bit address.
var lineOverflow = binary.AppendVarint([]byte("HFTR\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"), 1<<58)

// countClaim is a 13-byte trace whose header claims 2^32 records.
const countClaim = "HFTR\x01\x00\x00\x00\x00\x01\x00\x00\x00"

func TestReadTraceRejectsHugeCount(t *testing.T) {
	hdr := "HFTR\x01\xff\xff\xff\xff\xff\xff\xff\xff"
	if _, err := ReadTrace(strings.NewReader(hdr)); err == nil {
		t.Fatal("implausible count accepted")
	}
	// A count the header may claim but the stream does not hold is an
	// error, not a 96 GiB preallocation.
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

// FuzzReadTrace feeds ReadTrace arbitrary bytes: it must never panic, and
// any trace it accepts must survive WriteTrace and ReadTrace unchanged.
// The seeds are a short recorded trace and the inputs of
// TestReadTraceRejectsHugeCount and TestReadTraceRejectsGarbage that once
// crashed the reader or read back a wrong address.
func FuzzReadTrace(f *testing.F) {
	w, _ := ByName("ferret")
	var rec bytes.Buffer
	if err := WriteTrace(&rec, NewGenerator(w, 0, 1).Take(16)); err != nil {
		f.Fatal(err)
	}
	f.Add(rec.Bytes())
	f.Add([]byte(countClaim))
	f.Add(lineOverflow)
	f.Fuzz(func(t *testing.T, in []byte) {
		recs, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v is not ErrBadTrace", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, recs); err != nil {
			t.Fatalf("accepted trace does not write back: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("written trace does not read back: %v", err)
		}
		if !slices.Equal(back, recs) {
			t.Fatalf("round trip changed the trace: %v, then %v", recs, back)
		}
	})
}

func TestQuickTraceRoundTrip(t *testing.T) {
	f := func(lines []uint32, writes []bool, gaps []uint8) bool {
		n := len(lines)
		if len(writes) < n {
			n = len(writes)
		}
		if len(gaps) < n {
			n = len(gaps)
		}
		in := make([]Access, n)
		for i := 0; i < n; i++ {
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
		out, err := ReadTrace(&buf)
		if err != nil || len(out) != n {
			return false
		}
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

func TestReplayerWrapsAround(t *testing.T) {
	rec := []Access{{Addr: 0}, {Addr: 64}, {Addr: 128}}
	r := NewReplayer(rec)
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	for round := 0; round < 3; round++ {
		for i := range rec {
			if got := r.Next(); got != rec[i] {
				t.Fatalf("round %d record %d: %+v", round, i, got)
			}
		}
	}
}

func TestReplayerEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty replayer did not panic")
		}
	}()
	NewReplayer(nil)
}

func TestTraceCompactness(t *testing.T) {
	// The format should average well under 8 bytes per record for real
	// workloads (varint deltas).
	w, _ := ByName("streamcluster")
	recs := NewGenerator(w, 0, 5).Take(10000)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / float64(len(recs))
	if perRecord > 8 {
		t.Errorf("%.1f bytes/record, want < 8", perRecord)
	}
}
