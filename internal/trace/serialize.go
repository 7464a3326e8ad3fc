package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Trace serialization: a compact varint-delta binary format so generated
// workloads can be archived and replayed bit-exactly (e.g. to compare
// simulator versions, or to feed external tools). Format:
//
//	magic "HFTR" | version u8 | count u64
//	per record: flags u8 (bit0 write) | uvarint(gap) | varint(addr delta/64)
//
// Address deltas are line-granular and signed, keeping typical records at
// 3-5 bytes.

const (
	traceMagic   = "HFTR"
	traceVersion = 1
)

// WriteTrace serializes accesses to w.
func WriteTrace(w io.Writer, accesses []Access) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(traceVersion); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(accesses)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	prev := int64(0)
	for _, a := range accesses {
		if a.Addr%LineBytes != 0 {
			return fmt.Errorf("trace: unaligned address %#x", a.Addr)
		}
		flags := byte(0)
		if a.Write {
			flags = 1
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		n := binary.PutUvarint(buf[:], uint64(a.Gap))
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		line := int64(a.Addr / LineBytes)
		n = binary.PutVarint(buf[:], line-prev)
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
		prev = line
	}
	return bw.Flush()
}

// preallocMax is the most records ReadTrace allocates for before they
// arrive (1.5 MiB).
const preallocMax = 1 << 16

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Access, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	if ver != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, ver)
	}
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	count := binary.LittleEndian.Uint64(hdr)
	const sanityMax = 1 << 32
	if count > sanityMax {
		return nil, fmt.Errorf("%w: implausible record count %d", ErrBadTrace, count)
	}
	// The count is the header's claim, not what the stream holds: a
	// 13-byte file may claim 2^32 records. Preallocate no more than
	// preallocMax and let append grow the slice as records arrive.
	out := make([]Access, 0, min(count, preallocMax))
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadTrace, i, err)
		}
		gap, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d gap: %v", ErrBadTrace, i, err)
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: record %d addr: %v", ErrBadTrace, i, err)
		}
		line := prev + delta
		if line < 0 {
			return nil, fmt.Errorf("%w: record %d negative address", ErrBadTrace, i)
		}
		if uint64(line) > math.MaxUint64/LineBytes {
			return nil, fmt.Errorf("%w: record %d address beyond 64 bits", ErrBadTrace, i)
		}
		prev = line
		out = append(out, Access{
			Addr:  uint64(line) * LineBytes,
			Write: flags&1 != 0,
			Gap:   int(gap),
		})
	}
	return out, nil
}

// Replayer feeds a recorded trace through the Generator interface used by
// the simulator: Next returns records in order and loops back to the start
// when exhausted (so trace length and simulation length decouple).
type Replayer struct {
	records []Access
	pos     int
}

// NewReplayer wraps records; it panics on an empty trace.
func NewReplayer(records []Access) *Replayer {
	if len(records) == 0 {
		panic("trace: empty trace")
	}
	return &Replayer{records: records}
}

// Next returns the next record, wrapping around at the end.
func (r *Replayer) Next() Access {
	a := r.records[r.pos]
	r.pos++
	if r.pos == len(r.records) {
		r.pos = 0
	}
	return a
}

// Len returns the number of records.
func (r *Replayer) Len() int { return len(r.records) }
