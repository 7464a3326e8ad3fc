// Package bench defines the benchmark snapshot format written by
// cmd/hifi-bench and the comparison logic that turns two snapshots into a
// regression verdict. The format is versioned JSON so snapshots can be
// archived next to reports and diffed across commits; the comparison is a
// plain relative ns/op gate so CI can fail a pull request that slows a
// pinned benchmark beyond the threshold.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SchemaVersion identifies the snapshot layout; bump on breaking change.
const SchemaVersion = 1

// DefaultThreshold is the relative ns/op slowdown treated as a regression
// (0.10 = 10% slower than the baseline).
const DefaultThreshold = 0.10

// DefaultAllocThreshold is the relative allocs/op growth treated as a
// regression. Allocation counts are deterministic where timings are noisy,
// so the gate can be tighter than the ns/op one.
const DefaultAllocThreshold = 0.05

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Rates holds domain throughputs derived from the deterministic
	// workload each benchmark replays: shifts_per_sec, accesses_per_sec.
	Rates map[string]float64 `json:"rates,omitempty"`
}

// Snapshot is one full run of the pinned suite plus its provenance.
type Snapshot struct {
	Schema    int      `json:"schema"`
	DateUTC   string   `json:"date_utc"`
	GitSHA    string   `json:"git_sha"`
	GoVersion string   `json:"go_version"`
	Host      string   `json:"host"`
	Quick     bool     `json:"quick,omitempty"`
	Results   []Result `json:"results"`
}

// Add appends one result.
func (s *Snapshot) Add(r Result) { s.Results = append(s.Results, r) }

// WriteFile writes the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return s.write(f)
}

// WriteNew writes the snapshot like WriteFile, but never over an existing
// file: when path is taken it writes the first free one of
// <stem>_2<ext>, <stem>_3<ext>, ..., so a second snapshot on one date
// keeps its BENCH_<date> prefix. It returns the path written.
func (s *Snapshot) WriteNew(path string) (string, error) {
	ext := filepath.Ext(path)
	stem := strings.TrimSuffix(path, ext)
	for n := 2; ; n++ {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			path = stem + "_" + strconv.Itoa(n) + ext
			continue
		}
		if err != nil {
			return "", err
		}
		return path, s.write(f)
	}
}

// write encodes the snapshot into f and closes it.
func (s *Snapshot) write(f *os.File) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a snapshot, rejecting unknown schema versions so a stale
// binary never silently mis-compares a newer file.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("bench: %s: schema %d, want %d", path, s.Schema, SchemaVersion)
	}
	return &s, nil
}

// Delta is one benchmark's old-vs-new comparison.
type Delta struct {
	Name string
	// Old and New are ns/op; Ratio is New/Old (1.0 = unchanged).
	Old, New, Ratio float64
	// OldAllocs and NewAllocs are allocs/op; AllocRatio is new/old
	// (0 when the baseline allocated nothing).
	OldAllocs, NewAllocs int64
	AllocRatio           float64
	// MissingNew marks a baseline benchmark absent from the new snapshot
	// (renamed or deleted — surfaced so a regression cannot hide behind a
	// rename).
	MissingNew bool
}

// Regressed reports whether the delta exceeds the slowdown threshold. A
// missing benchmark is treated as a regression: the gate must be updated
// deliberately, not dodged.
func (d Delta) Regressed(threshold float64) bool {
	if d.MissingNew {
		return true
	}
	return d.Old > 0 && d.Ratio > 1+threshold
}

// AllocRegressed reports whether allocs/op grew beyond the threshold. A
// missing benchmark is already caught by Regressed, so it is not repeated
// here; a baseline of zero allocations regresses on any new allocation.
func (d Delta) AllocRegressed(threshold float64) bool {
	if d.MissingNew {
		return false
	}
	if d.OldAllocs == 0 {
		return d.NewAllocs > 0
	}
	return d.AllocRatio > 1+threshold
}

// Compare matches benchmarks by name and returns one delta per baseline
// entry, sorted by name. Benchmarks only present in the new snapshot are
// ignored (additions are not regressions).
func Compare(old, cur *Snapshot) []Delta {
	newByName := make(map[string]Result, len(cur.Results))
	for _, r := range cur.Results {
		newByName[r.Name] = r
	}
	deltas := make([]Delta, 0, len(old.Results))
	for _, o := range old.Results {
		d := Delta{Name: o.Name, Old: o.NsPerOp, OldAllocs: o.AllocsPerOp}
		if n, ok := newByName[o.Name]; ok {
			d.New = n.NsPerOp
			d.NewAllocs = n.AllocsPerOp
			if o.NsPerOp > 0 {
				d.Ratio = n.NsPerOp / o.NsPerOp
			}
			if o.AllocsPerOp > 0 {
				d.AllocRatio = float64(n.AllocsPerOp) / float64(o.AllocsPerOp)
			}
		} else {
			d.MissingNew = true
		}
		deltas = append(deltas, d)
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].Name < deltas[j].Name })
	return deltas
}

// Regressions filters the deltas that breach either gate: the ns/op
// slowdown threshold or the allocs/op growth threshold. An allocThreshold
// < 0 disables the allocation gate (timing-only comparison).
func Regressions(deltas []Delta, threshold, allocThreshold float64) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed(threshold) || (allocThreshold >= 0 && d.AllocRegressed(allocThreshold)) {
			out = append(out, d)
		}
	}
	return out
}
