// Package fidelity scores a run of the experiment suite against the
// paper's published numbers. Each Anchor is one declarative claim about
// one experiment table — a cell value with a tolerance, a bound, a
// column ordering, or a column ratio — tagged with where in the paper
// the claim comes from. Evaluate checks every anchor against a set of
// rendered tables and produces a deterministic scorecard: the same
// tables always yield byte-identical fidelity.json, so the scorecard
// inherits the engine's reproducibility contract (docs/engine.md) and
// two runs can be diffed directly. See docs/fidelity.md.
package fidelity

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/telemetry/events"
)

// SchemaV1 identifies the scorecard JSON layout.
const SchemaV1 = "hifi_fidelity_v1"

// Kind selects how an anchor's claim is checked.
type Kind string

const (
	// Value compares the selected cell to Want: relative error within
	// RelTol passes, within WarnTol warns, beyond fails.
	Value Kind = "value"
	// AtLeast requires cell >= Want (warn band: >= Want*(1-WarnTol)).
	AtLeast Kind = "at-least"
	// AtMost requires cell <= Want (warn band: <= Want*(1+WarnTol)).
	AtMost Kind = "at-most"
	// Order requires the Cols values to be strictly increasing across
	// each selected row; a violation within multiplicative Slack warns.
	Order Kind = "order"
	// RatioAtLeast requires cell/baseline >= Want per selected row
	// (warn band: >= Want*(1-WarnTol)).
	RatioAtLeast Kind = "ratio-at-least"
	// RatioAtMost requires cell/baseline <= Want per selected row
	// (warn band: <= Want*(1+WarnTol)).
	RatioAtMost Kind = "ratio-at-most"
)

// Anchor is one declarative claim tying an experiment table back to a
// published number or relationship. Anchors address cells by header
// name so they survive column reordering, and select rows by exact
// cell match so they survive row reordering.
type Anchor struct {
	// ID names the anchor in scorecards and CI logs: "table2/k1-d1".
	ID string `json:"id"`
	// Experiment is the table key as listed by experiments.Order().
	Experiment string `json:"experiment"`
	// Source is the paper provenance: "Table 2, d=1, k=1 column".
	Source string `json:"source"`
	// Desc states the claim in words.
	Desc string `json:"desc,omitempty"`

	Kind Kind `json:"kind"`
	// Where filters rows: every listed header column must equal the
	// given cell text exactly. Empty selects every row.
	Where map[string]string `json:"where,omitempty"`
	// Col is the header name of the column under test (all kinds
	// except Order).
	Col string `json:"col,omitempty"`
	// Cols lists the columns that must ascend, for Order.
	Cols []string `json:"cols,omitempty"`
	// Baseline is the denominator column for the ratio kinds.
	Baseline string `json:"baseline,omitempty"`

	// Want is the published value, bound, or ratio bound.
	Want float64 `json:"want,omitempty"`
	// RelTol is the pass band for Value (relative error).
	RelTol float64 `json:"rel_tol,omitempty"`
	// WarnTol widens the band to a warning instead of a failure.
	WarnTol float64 `json:"warn_tol,omitempty"`
	// Slack is the multiplicative tolerance for Order violations.
	Slack float64 `json:"slack,omitempty"`
}

// Status is an anchor verdict. Skip means the experiment's table was
// not in the evaluated set (e.g. a partial sweep), not that it passed.
type Status string

const (
	Pass Status = "pass"
	Warn Status = "warn"
	Fail Status = "fail"
	Skip Status = "skip"
)

// rank orders statuses by severity so row-wise results aggregate to
// the worst one.
func (s Status) rank() int {
	switch s {
	case Fail:
		return 3
	case Warn:
		return 2
	case Pass:
		return 1
	}
	return 0
}

// Result is one evaluated anchor.
type Result struct {
	ID         string `json:"id"`
	Experiment string `json:"experiment"`
	Source     string `json:"source"`
	Desc       string `json:"desc,omitempty"`
	Kind       Kind   `json:"kind"`
	Status     Status `json:"status"`
	// Measured is the checked value (cell, ratio, or the first
	// offending pair for Order) from the worst row.
	Measured float64 `json:"measured,omitempty"`
	Want     float64 `json:"want,omitempty"`
	// RelErr is the worst relative deviation observed across the
	// selected rows (0 for Order).
	RelErr float64 `json:"rel_err,omitempty"`
	// Rows is how many rows the anchor checked.
	Rows int `json:"rows"`
	// Detail names the row (and reason) behind a non-pass status.
	Detail string `json:"detail,omitempty"`
}

// Scorecard is the full evaluation: one Result per Anchor, in anchor
// declaration order, plus counts. Identical tables produce identical
// scorecards byte for byte.
type Scorecard struct {
	Schema  string   `json:"schema"`
	Pass    int      `json:"pass"`
	Warn    int      `json:"warn"`
	Fail    int      `json:"fail"`
	Skip    int      `json:"skip"`
	Anchors []Result `json:"anchors"`
}

// Evaluate checks every anchor against the tables, keyed by experiment
// as experiments.Sweep returns them. Missing tables skip their
// anchors; malformed ones (unknown column, non-numeric cell, no
// matching rows) fail them — silence here would let a renamed header
// disable a gate unnoticed.
func Evaluate(anchors []Anchor, tables map[string]experiments.Table) Scorecard {
	sc := Scorecard{Schema: SchemaV1}
	for _, a := range anchors {
		r := evalAnchor(a, tables)
		switch r.Status {
		case Pass:
			sc.Pass++
		case Warn:
			sc.Warn++
		case Fail:
			sc.Fail++
		case Skip:
			sc.Skip++
		}
		sc.Anchors = append(sc.Anchors, r)
	}
	return sc
}

// Err returns a non-nil error when any anchor failed, formatted for a
// CI gate or log.Fatalf.
func (sc Scorecard) Err() error {
	if sc.Fail == 0 {
		return nil
	}
	var first string
	for _, r := range sc.Anchors {
		if r.Status == Fail {
			first = fmt.Sprintf("%s (%s)", r.ID, r.Detail)
			break
		}
	}
	return fmt.Errorf("fidelity: %d anchor(s) failed, first: %s", sc.Fail, first)
}

// Emit publishes one fidelity.verdict event per evaluated anchor to
// bus: Name is the anchor ID, Detail the status (pass/warn/fail/skip),
// V the measured value. Anchor declaration order, so the event stream
// carries the verdicts deterministically. Nil-safe.
func (sc Scorecard) Emit(bus *events.Bus) {
	for _, r := range sc.Anchors {
		bus.Emit(events.Event{
			Type:   events.FidelityVerdict,
			Name:   r.ID,
			Detail: string(r.Status),
			V:      r.Measured,
		})
	}
}

// WriteJSON marshals the scorecard with stable indentation.
func (sc Scorecard) JSON() []byte {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		// Scorecard has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("fidelity: marshal: %v", err))
	}
	return append(b, '\n')
}

// WriteFile writes the scorecard JSON to path.
func (sc Scorecard) WriteFile(path string) error {
	return os.WriteFile(path, sc.JSON(), 0o644)
}

func evalAnchor(a Anchor, tables map[string]experiments.Table) Result {
	r := Result{ID: a.ID, Experiment: a.Experiment, Source: a.Source,
		Desc: a.Desc, Kind: a.Kind, Want: a.Want}
	tab, ok := tables[a.Experiment]
	if !ok {
		r.Status = Skip
		r.Detail = "experiment not in evaluated set"
		return r
	}
	rows, err := selectRows(tab, a.Where)
	if err == nil && len(rows) == 0 {
		err = fmt.Errorf("no rows match %v", a.Where)
	}
	if err != nil {
		r.Status = Fail
		r.Detail = err.Error()
		return r
	}
	r.Status = Pass
	for _, row := range rows {
		st, measured, relErr, why, err := evalRow(a, tab, row)
		if err != nil {
			r.Status = Fail
			r.Detail = fmt.Sprintf("row %q: %v", rowKey(row), err)
			return r
		}
		r.Rows++
		if relErr > r.RelErr {
			r.RelErr = relErr
		}
		if st.rank() > r.Status.rank() {
			r.Status = st
			r.Measured = measured
			r.Detail = fmt.Sprintf("row %q: %s", rowKey(row), why)
		} else if r.Status == Pass && r.Rows == 1 {
			r.Measured = measured
		}
	}
	return r
}

// rowKey labels a row for Detail strings: its first cell.
func rowKey(row []string) string {
	if len(row) == 0 {
		return ""
	}
	return row[0]
}

func selectRows(tab experiments.Table, where map[string]string) ([][]string, error) {
	if len(where) == 0 {
		return tab.Rows, nil
	}
	idx := make(map[string]int, len(where))
	for col := range where {
		i, err := colIndex(tab, col)
		if err != nil {
			return nil, err
		}
		idx[col] = i
	}
	var out [][]string
	for _, row := range tab.Rows {
		match := true
		for col, want := range where {
			if i := idx[col]; i >= len(row) || row[i] != want {
				match = false
				break
			}
		}
		if match {
			out = append(out, row)
		}
	}
	return out, nil
}

func colIndex(tab experiments.Table, name string) (int, error) {
	for i, h := range tab.Header {
		if h == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("column %q not in header %v", name, tab.Header)
}

func cell(tab experiments.Table, row []string, col string) (float64, error) {
	i, err := colIndex(tab, col)
	if err != nil {
		return 0, err
	}
	if i >= len(row) {
		return 0, fmt.Errorf("row has no column %q", col)
	}
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		return 0, fmt.Errorf("cell %q in column %q is not numeric", row[i], col)
	}
	return v, nil
}

// evalRow checks one anchor against one row, returning the verdict,
// the measured value, the relative deviation from Want, and (for
// non-pass verdicts) a reason.
func evalRow(a Anchor, tab experiments.Table, row []string) (Status, float64, float64, string, error) {
	switch a.Kind {
	case Value:
		v, err := cell(tab, row, a.Col)
		if err != nil {
			return Fail, 0, 0, "", err
		}
		relErr := math.Abs(v-a.Want) / math.Max(math.Abs(a.Want), math.SmallestNonzeroFloat64)
		switch {
		case relErr <= a.RelTol:
			return Pass, v, relErr, "", nil
		case relErr <= a.WarnTol:
			return Warn, v, relErr, fmt.Sprintf("%s = %g, want %g (rel err %.2g > %.2g)",
				a.Col, v, a.Want, relErr, a.RelTol), nil
		}
		return Fail, v, relErr, fmt.Sprintf("%s = %g, want %g (rel err %.2g)",
			a.Col, v, a.Want, relErr), nil

	case AtLeast, AtMost:
		v, err := cell(tab, row, a.Col)
		if err != nil {
			return Fail, 0, 0, "", err
		}
		return bound(a, a.Col, v)

	case RatioAtLeast, RatioAtMost:
		num, err := cell(tab, row, a.Col)
		if err != nil {
			return Fail, 0, 0, "", err
		}
		den, err := cell(tab, row, a.Baseline)
		if err != nil {
			return Fail, 0, 0, "", err
		}
		if den == 0 {
			return Fail, 0, 0, "", fmt.Errorf("baseline %q is zero", a.Baseline)
		}
		return bound(a, fmt.Sprintf("%s/%s", a.Col, a.Baseline), num/den)

	case Order:
		prev := math.Inf(-1)
		prevCol := ""
		worst := Pass
		var measured float64
		why := ""
		for _, col := range a.Cols {
			v, err := cell(tab, row, col)
			if err != nil {
				return Fail, 0, 0, "", err
			}
			var st Status
			switch {
			case v > prev:
				st = Pass
			case v >= prev*(1-a.Slack):
				st = Warn
			default:
				st = Fail
			}
			if st.rank() > worst.rank() {
				worst = st
				measured = v
				why = fmt.Sprintf("%s (%g) not above %s (%g)", col, v, prevCol, prev)
			}
			prev, prevCol = v, col
		}
		return worst, measured, 0, why, nil
	}
	return Fail, 0, 0, "", fmt.Errorf("unknown anchor kind %q", a.Kind)
}

// bound applies the AtLeast/AtMost (and ratio) verdict bands to v.
func bound(a Anchor, label string, v float64) (Status, float64, float64, string, error) {
	relErr := 0.0
	if a.Want != 0 {
		relErr = math.Abs(v-a.Want) / math.Abs(a.Want)
	}
	atLeast := a.Kind == AtLeast || a.Kind == RatioAtLeast
	ok, warnOK := v >= a.Want, v >= a.Want*(1-a.WarnTol)
	cmp := ">="
	if !atLeast {
		ok, warnOK = v <= a.Want, v <= a.Want*(1+a.WarnTol)
		cmp = "<="
	}
	switch {
	case ok:
		return Pass, v, relErr, "", nil
	case warnOK:
		return Warn, v, relErr, fmt.Sprintf("%s = %g, want %s %g (within warn band)",
			label, v, cmp, a.Want), nil
	}
	return Fail, v, relErr, fmt.Sprintf("%s = %g, want %s %g", label, v, cmp, a.Want), nil
}
