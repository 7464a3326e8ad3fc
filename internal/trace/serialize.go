package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Trace files hold an access stream in the record layout Streams keeps
// (see pack), so generated workloads can be archived and replayed
// bit-exactly (e.g. to compare simulator versions, or to feed external
// tools). Format:
//
//	magic "HFTR" | version u8 (2) | count u64 | count records, u64 each
//
// All integers are little-endian, so a file's body is byte for byte the
// slice a kept stream holds: 8 bytes an access. ReadTrace refuses every
// other version, the varint-delta version 1 included.

const (
	traceMagic   = "HFTR"
	traceVersion = 2
	headerLen    = len(traceMagic) + 1 + 8
)

// WriteTrace serializes accesses to w. It refuses, before writing
// anything, an access a record cannot hold: an unaligned address, a line
// ≥ 2^32 or a gap outside [0, 2^31).
func WriteTrace(w io.Writer, accesses []Access) error {
	out := append(make([]byte, 0, headerLen+8*len(accesses)), traceMagic...)
	out = binary.LittleEndian.AppendUint64(append(out, traceVersion), uint64(len(accesses)))
	for i, a := range accesses {
		rec, ok := pack(a)
		if !ok {
			return fmt.Errorf("trace: access %d (addr %#x, gap %d) does not fit a record", i, a.Addr, a.Gap)
		}
		out = binary.LittleEndian.AppendUint64(out, rec)
	}
	_, err := w.Write(out)
	return err
}

// preallocMax is the most records ReadTrace allocates for before they
// arrive (512 KiB).
const preallocMax = 1 << 16

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// ReadTrace deserializes a trace written by WriteTrace into its records;
// NewReplay replays them. Bytes past the last record are ignored.
func ReadTrace(r io.Reader) ([]uint64, error) {
	br := bufio.NewReader(r)
	var hdr [headerLen]byte
	n, err := io.ReadFull(br, hdr[:])
	const ver = len(traceMagic) // the version byte's offset
	switch {
	case n >= ver && string(hdr[:ver]) != traceMagic:
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, hdr[:ver])
	case n > ver && hdr[ver] != traceVersion:
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, hdr[ver])
	case err != nil:
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	count := binary.LittleEndian.Uint64(hdr[ver+1:])
	const sanityMax = 1 << 32
	if count > sanityMax {
		return nil, fmt.Errorf("%w: implausible record count %d", ErrBadTrace, count)
	}
	// The count is the header's claim, not what the stream holds: a
	// 13-byte file may claim 2^32 records. Preallocate no more than
	// preallocMax and let append grow the slice as records arrive.
	out := make([]uint64, 0, min(count, preallocMax))
	var rec [8]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadTrace, i, err)
		}
		out = append(out, binary.LittleEndian.Uint64(rec[:]))
	}
	return out, nil
}
