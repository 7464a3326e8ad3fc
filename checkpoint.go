package hifi

// Checkpointing: save and restore the logical contents of a Memory — the
// line data and validity — so long experiments can resume or archive
// state. The physical tape positions, fault-injection RNG streams, and
// statistics are deliberately NOT captured: restoring a checkpoint models
// a power-up from non-volatile storage, where data survives but position
// state is re-established by p-ECC re-initialization (§4.3) and counters
// start fresh.
//
// This is device-level resume: the unit is one simulated memory's image.
// Sweep-level progress — which (config, workload) jobs of a multi-
// experiment sweep already have results — is the result cache in
// internal/engine; see docs/engine.md for why the two layers stay apart.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	checkpointMagic   = "HFCK"
	checkpointVersion = 1
)

// Save writes the memory's logical contents to w.
func (m *Memory) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	hdr := []uint64{
		checkpointVersion,
		uint64(len(m.groups)),
		uint64(m.cfg.DomainsPerStripe),
		uint64(m.cfg.LineBytes),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, g := range m.groups {
		for d := range g.lines {
			v := byte(0)
			if g.valid[d] {
				v = 1
			}
			if err := bw.WriteByte(v); err != nil {
				return err
			}
			if _, err := bw.Write(g.lines[d]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load restores logical contents written by Save into an identically
// configured Memory. Geometry mismatches are rejected.
func (m *Memory) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return fmt.Errorf("hifi: checkpoint: %w", err)
	}
	if string(magic) != checkpointMagic {
		return fmt.Errorf("hifi: checkpoint: bad magic %q", magic)
	}
	var hdr [4]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return fmt.Errorf("hifi: checkpoint: %w", err)
		}
	}
	if hdr[0] != checkpointVersion {
		return fmt.Errorf("hifi: checkpoint: unsupported version %d", hdr[0])
	}
	if hdr[1] != uint64(len(m.groups)) ||
		hdr[2] != uint64(m.cfg.DomainsPerStripe) ||
		hdr[3] != uint64(m.cfg.LineBytes) {
		return fmt.Errorf("hifi: checkpoint: geometry mismatch (%d groups x %d domains x %dB vs %d x %d x %dB)",
			hdr[1], hdr[2], hdr[3], len(m.groups), m.cfg.DomainsPerStripe, m.cfg.LineBytes)
	}
	for _, g := range m.groups {
		for d := range g.lines {
			v, err := br.ReadByte()
			if err != nil {
				return fmt.Errorf("hifi: checkpoint: %w", err)
			}
			g.valid[d] = v == 1
			if _, err := io.ReadFull(br, g.lines[d]); err != nil {
				return fmt.Errorf("hifi: checkpoint: %w", err)
			}
		}
	}
	return nil
}
