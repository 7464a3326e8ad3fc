package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

// parse pulls a float back out of a rendered cell.
func parse(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not a number: %v", s, err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	tab := Table{Title: "T", Note: "n", Header: []string{"a", "b"}}
	tab.AddRow("x", 1.5)
	tab.AddRow("y", 1e-9)
	s := tab.String()
	if !strings.Contains(s, "== T ==") || !strings.Contains(s, "1.5") {
		t.Errorf("rendering missing pieces:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "x,1.5") {
		t.Errorf("CSV row wrong:\n%s", csv)
	}
}

func TestCSVQuoting(t *testing.T) {
	tab := Table{Header: []string{"a"}}
	tab.AddRow(`va"l,ue`)
	csv := tab.CSV()
	if !strings.Contains(csv, `"va""l,ue"`) {
		t.Errorf("quoting wrong: %s", csv)
	}
}

func TestFig1Shape(t *testing.T) {
	tab := Fig1()
	if len(tab.Rows) != 19 {
		t.Fatalf("rows = %d, want 19 (1e-20..1e-2)", len(tab.Rows))
	}
	// MTTF strictly decreasing with rate. The ~10-year paper anchor at
	// 1e-19 is enforced by the fidelity scorecard (fidelity_test.go).
	prev := math.Inf(1)
	for _, r := range tab.Rows {
		m := parse(t, r[1])
		if m >= prev {
			t.Fatalf("MTTF not decreasing at rate %s", r[0])
		}
		prev = m
	}
}

func TestFig4Shape(t *testing.T) {
	tab := Fig4(context.Background(), 20000, 7)
	if len(tab.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tab.Rows))
	}
	// The correct bin dominates at every distance.
	var correct []float64
	for _, r := range tab.Rows {
		if r[0] == "0 (correct)" {
			for i := 1; i <= 3; i++ {
				correct = append(correct, parse(t, r[i]))
			}
		}
	}
	if len(correct) != 3 {
		t.Fatal("correct row missing")
	}
	for i, c := range correct {
		if c < 0.9 {
			t.Errorf("correct fraction %d = %v, want > 0.9", i, c)
		}
	}
	// Analytic tail strictly below MC resolution.
	last := tab.Rows[len(tab.Rows)-1]
	for i := 1; i <= 3; i++ {
		if v := parse(t, last[i]); v > -5 {
			t.Errorf("analytic |e|>=2 log10 rate = %v, want very small", v)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	// Per-distance published rates are enforced anchor by anchor in the
	// fidelity scorecard (fidelity_test.go); here only the shape.
	tab := Table2()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig7Shape(t *testing.T) {
	tab := Fig7()
	if len(tab.Rows) != 21 {
		t.Fatalf("rows = %d, want 21", len(tab.Rows))
	}
	// Monotone in both added reads (down the rows) and R/W count (across).
	for col := 1; col <= 5; col++ {
		prev := 0.0
		for _, r := range tab.Rows {
			v := parse(t, r[col])
			if v < prev {
				t.Fatalf("column %d not monotone", col)
			}
			prev = v
		}
	}
	first := tab.Rows[0]
	for col := 2; col <= 5; col++ {
		if parse(t, first[col]) < parse(t, first[col-1]) {
			t.Fatalf("row 0 not monotone across R/W counts")
		}
	}
}

func TestTable3Content(t *testing.T) {
	tab := Table3()
	var aRows, bRows int
	for _, r := range tab.Rows {
		switch r[0] {
		case "a":
			aRows++
		case "b":
			bRows++
		}
	}
	if aRows != 7 {
		t.Errorf("part (a) rows = %d, want 7", aRows)
	}
	if bRows < 7 {
		t.Errorf("part (b) rows = %d, want >= 7", bRows)
	}
	// The Dsafe=1 rate anchor lives in the fidelity scorecard; here only
	// that the row exists.
	found := false
	for _, r := range tab.Rows {
		if r[0] == "a" && r[1] == "Dsafe=1" {
			found = true
		}
	}
	if !found {
		t.Error("Dsafe=1 row missing")
	}
}

func TestFig12Shape(t *testing.T) {
	tab := Fig12()
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range tab.Rows {
		s := parse(t, r[2])
		o := parse(t, r[3])
		// Paper: p-ECC-O achieves the highest DUE MTTF everywhere.
		if o < s {
			t.Errorf("%s: p-ECC-O MTTF (%g) below p-ECC-S (%g)", r[0], o, s)
		}
		// Both schemes meet the 10-year target in every configuration.
		if r[4] != "yes" {
			t.Errorf("%s: does not meet 10-year target", r[0])
		}
	}
	// p-ECC-S MTTF grows as segments shrink (within the 64-bit family).
	var s64 []float64
	for _, r := range tab.Rows {
		if r[1] == "64" {
			s64 = append(s64, parse(t, r[2]))
		}
	}
	if len(s64) < 3 {
		t.Fatal("missing 64-bit configs")
	}
	if s64[0] < s64[len(s64)-1] {
		t.Error("p-ECC-S MTTF should be higher for shorter segments")
	}
}

func TestFig13Shape(t *testing.T) {
	tab := Fig13()
	for _, r := range tab.Rows {
		base := parse(t, r[2])
		s := parse(t, r[3])
		o := parse(t, r[4])
		if s < base || o < base {
			t.Errorf("%s: protection cheaper than baseline", r[0])
		}
	}
	// p-ECC-O wins for long segments (paper: Lseg >= 16).
	for _, r := range tab.Rows {
		if strings.HasSuffix(r[0], "x32") || strings.HasSuffix(r[0], "x64") {
			if parse(t, r[4]) > parse(t, r[3]) {
				t.Errorf("%s: p-ECC-O (%s) should beat p-ECC-S (%s)", r[0], r[4], r[3])
			}
		}
	}
}

func TestFig15Shape(t *testing.T) {
	tab := Fig15()
	for _, r := range tab.Rows {
		s := parse(t, r[2])
		o := parse(t, r[3])
		if s < 1-1e-9 || o < 1-1e-9 {
			t.Errorf("%s: normalized latency below 1", r[0])
		}
		// p-ECC-O pays at least as much as adaptive everywhere.
		if o < s-1e-9 {
			t.Errorf("%s: p-ECC-O (%v) below adaptive (%v)", r[0], o, s)
		}
	}
	// Long segments hurt p-ECC-O most (paper Fig 15).
	last := tab.Rows[len(tab.Rows)-1] // 2x64
	if parse(t, last[3]) < 2 {
		t.Errorf("p-ECC-O at 2x64 = %v, want >= 2", parse(t, last[3]))
	}
}

func TestTable5Content(t *testing.T) {
	// The published overhead numbers (detect cost, cell %, controller
	// area) are fidelity anchors; here only shape and the N/A cell.
	tab := Table5()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, r := range tab.Rows {
		byName[r[0]] = r
	}
	if byName["p-ecc"] == nil {
		t.Fatal("p-ecc row missing")
	}
	if byName["sts"][5] != "N/A" {
		t.Error("sts cell overhead should be N/A")
	}
}
