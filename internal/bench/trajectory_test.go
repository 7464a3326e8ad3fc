package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

// writeSnap writes a snapshot with the given date and results, returning
// its path.
func writeSnap(t *testing.T, dir, name, date string, results ...Result) string {
	t.Helper()
	s := snap(results...)
	s.DateUTC = date
	s.GitSHA = "sha-" + date
	path := filepath.Join(dir, name)
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTrajectoryOrdersAndFolds(t *testing.T) {
	dir := t.TempDir()
	// Written out of chronological order on purpose; DateUTC must win.
	p2 := writeSnap(t, dir, "BENCH_b.json", "2026-02-01T00:00:00Z",
		Result{Name: "rtm-shift-loop", NsPerOp: 80, AllocsPerOp: 0},
		Result{Name: "memsim-replay", NsPerOp: 2e6, AllocsPerOp: 120},
	)
	p1 := writeSnap(t, dir, "BENCH_a.json", "2026-01-01T00:00:00Z",
		Result{Name: "rtm-shift-loop", NsPerOp: 100, AllocsPerOp: 0},
		Result{Name: "memsim-replay", NsPerOp: 1e6, AllocsPerOp: 100},
	)
	p3 := writeSnap(t, dir, "BENCH_c.json", "2026-03-01T00:00:00Z",
		Result{Name: "rtm-shift-loop", NsPerOp: 40, AllocsPerOp: 0},
		// memsim-replay dropped in the newest snapshot.
	)
	tr, err := LoadTrajectory([]string{p2, p3, p1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Snapshots) != 3 || tr.Snapshots[0].Path != p1 || tr.Snapshots[2].Path != p3 {
		t.Fatalf("snapshot order = %+v", tr.Snapshots)
	}
	if len(tr.Series) != 2 || tr.Series[0].Name != "memsim-replay" {
		t.Fatalf("series = %+v", tr.Series)
	}
	ms := tr.Series[0]
	if len(ms.Points) != 3 || ms.Points[0].NsPerOp != 1e6 || !ms.Points[2].Missing {
		t.Fatalf("memsim series = %+v", ms.Points)
	}
}

// A second snapshot on one date must not replace the first: WriteNew
// picks a fresh name the committed-snapshot glob still matches, and the
// trajectory places the two by date_utc, then path.
func TestWriteNewKeepsSameDaySnapshots(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_2026-10-17.json")
	var paths []string
	for _, sha := range []string{"first", "second", "third"} {
		s := snap(Result{Name: "a", NsPerOp: 100})
		s.DateUTC, s.GitSHA = "2026-10-17T05:15:25Z", sha
		p, err := s.WriteNew(path)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	if paths[0] != path || paths[1] == path || paths[2] == paths[1] {
		t.Fatalf("paths = %q", paths)
	}
	matched, err := filepath.Glob(filepath.Join(dir, "BENCH_2*.json"))
	if err != nil || len(matched) != 3 {
		t.Fatalf("BENCH_2*.json matches %q (%v)", matched, err)
	}
	first, err := ReadFile(path)
	if err != nil || first.GitSHA != "first" {
		t.Fatalf("first snapshot replaced: %+v (%v)", first, err)
	}
	tr, err := LoadTrajectory([]string{paths[2], paths[0], paths[1]})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"first", "second", "third"} {
		if got := tr.Snapshots[i].GitSHA; got != want {
			t.Fatalf("trajectory point %d is %q, want %q: %+v", i, got, want, tr.Snapshots)
		}
	}
}

func TestTrajectoryDeltasFirstVsLast(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		writeSnap(t, dir, "BENCH_1.json", "2026-01-01T00:00:00Z",
			Result{Name: "a", NsPerOp: 100, AllocsPerOp: 10}),
		writeSnap(t, dir, "BENCH_2.json", "2026-02-01T00:00:00Z",
			Result{Name: "a", NsPerOp: 500, AllocsPerOp: 50}, // mid-spike ignored
			Result{Name: "once", NsPerOp: 7}),
		writeSnap(t, dir, "BENCH_3.json", "2026-03-01T00:00:00Z",
			Result{Name: "a", NsPerOp: 50, AllocsPerOp: 20}),
	}
	tr, err := LoadTrajectory(paths)
	if err != nil {
		t.Fatal(err)
	}
	deltas := tr.Deltas()
	if len(deltas) != 1 || deltas[0].Name != "a" {
		t.Fatalf("deltas = %+v, want only benchmark a (seen-once has no direction)", deltas)
	}
	d := deltas[0]
	if d.Old != 100 || d.New != 50 || d.Ratio != 0.5 {
		t.Errorf("ns delta = %+v", d)
	}
	if d.OldAllocs != 10 || d.NewAllocs != 20 || d.AllocRatio != 2 {
		t.Errorf("alloc delta = %+v", d)
	}
}

func TestLoadTrajectoryNeedsTwo(t *testing.T) {
	dir := t.TempDir()
	p := writeSnap(t, dir, "BENCH_1.json", "2026-01-01T00:00:00Z", Result{Name: "a", NsPerOp: 1})
	if _, err := LoadTrajectory([]string{p}); err == nil {
		t.Fatal("want error for a single snapshot")
	}
}

func TestTrajectorySVGDeterministic(t *testing.T) {
	dir := t.TempDir()
	paths := []string{
		writeSnap(t, dir, "BENCH_1.json", "2026-01-01T00:00:00Z",
			Result{Name: "a", NsPerOp: 100}, Result{Name: "b<x>", NsPerOp: 10}),
		writeSnap(t, dir, "BENCH_2.json", "2026-02-01T00:00:00Z",
			Result{Name: "a", NsPerOp: 200}, Result{Name: "b<x>", NsPerOp: 5}),
	}
	tr, err := LoadTrajectory(paths)
	if err != nil {
		t.Fatal(err)
	}
	svg := tr.SVG()
	if svg != tr.SVG() {
		t.Fatal("SVG not deterministic")
	}
	for _, want := range []string{"<svg ", "</svg>", "polyline", "b&lt;x&gt;", "(2.00x)", "(0.50x)"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Contains(svg, "b<x>") {
		t.Error("SVG contains unescaped series name")
	}
}

func TestAllocGate(t *testing.T) {
	old := snap(
		Result{Name: "steady", NsPerOp: 100, AllocsPerOp: 100},
		Result{Name: "leaky", NsPerOp: 100, AllocsPerOp: 100},
		Result{Name: "fresh-alloc", NsPerOp: 100, AllocsPerOp: 0},
	)
	cur := snap(
		Result{Name: "steady", NsPerOp: 100, AllocsPerOp: 104},    // +4%: under gate
		Result{Name: "leaky", NsPerOp: 100, AllocsPerOp: 120},     // +20%: trips
		Result{Name: "fresh-alloc", NsPerOp: 100, AllocsPerOp: 1}, // 0 -> 1: trips
	)
	deltas := Compare(old, cur)
	regs := Regressions(deltas, DefaultThreshold, DefaultAllocThreshold)
	if len(regs) != 2 || regs[0].Name != "fresh-alloc" || regs[1].Name != "leaky" {
		t.Fatalf("regressions = %+v, want fresh-alloc and leaky", regs)
	}
	// Disabled alloc gate: nothing regresses (timings are flat).
	if regs := Regressions(deltas, DefaultThreshold, -1); len(regs) != 0 {
		t.Fatalf("with alloc gate off, regressions = %+v", regs)
	}
}
