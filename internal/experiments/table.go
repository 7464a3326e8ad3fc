// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §6). Each Fig*/Table* function produces the same rows or
// series the paper reports, as a Table value that renders to aligned text
// or CSV. The per-experiment index lives in DESIGN.md; measured-vs-paper
// comparisons live in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: a titled grid of string cells.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends one row, formatting each cell with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// formatFloat renders numbers compactly: scientific for extremes, fixed
// otherwise.
func formatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	b.WriteString("== " + t.Title + " ==\n")
	if t.Note != "" {
		b.WriteString(t.Note + "\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) && len(c) < widths[i] {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
