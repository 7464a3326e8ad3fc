package watch

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// barWidth is the job progress bar's character budget.
const barWidth = 30

// Render draws one dashboard frame as plain text (no ANSI — the CLI
// owns screen clearing). Sections with nothing to say are omitted, so
// a frame from a short tool (hifi-bench) stays short.
func (m *Model) Render() string {
	var b strings.Builder

	tool := m.Tool
	if tool == "" {
		tool = "?"
	}
	fmt.Fprintf(&b, "hifi-watch · %s", tool)
	if m.Phase != "" {
		fmt.Fprintf(&b, " · phase %s", m.Phase)
	}
	fmt.Fprintf(&b, " · seq %d · %d event(s)", m.LastSeq, m.Events)
	if el := m.Elapsed(); el > 0 {
		fmt.Fprintf(&b, " · %s", round(el))
	}
	if m.Finished {
		fmt.Fprintf(&b, " · finished in %s", round(time.Duration(m.RunMS)*time.Millisecond))
	}
	b.WriteByte('\n')

	if m.JobID != "" {
		fmt.Fprintf(&b, "job   %s %s", m.JobID, m.JobState)
		if m.JobNote != "" {
			fmt.Fprintf(&b, " (%s)", m.JobNote)
		}
		if m.Polling {
			b.WriteString("  [SSE replay gap: polling status]")
		}
		b.WriteByte('\n')
	}

	if m.Queued > 0 {
		done := m.Completed()
		fmt.Fprintf(&b, "jobs  %s %d/%d (%.0f%%)", bar(done, m.Queued), done, m.Queued,
			100*float64(done)/float64(m.Queued))
		if inflight := m.InFlight(); inflight > 0 {
			fmt.Fprintf(&b, "  in-flight %d", inflight)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "      cache %d (%.0f%% hit)  panic %d  failed %d\n",
			m.CacheHits, 100*m.CacheHitRate(), m.Panics, m.Failed)
		if eta := m.ETA(); eta > 0 {
			mean := time.Duration(float64(m.ExecMSTotal)/float64(m.Done)) * time.Millisecond
			fmt.Fprintf(&b, "      avg job %s  eta ~%s\n", round(mean), round(eta))
		}
	}

	if len(m.WorkerStates) > 0 {
		b.WriteString("workers")
		for _, slot := range m.workerSlots() {
			w := m.WorkerStates[slot]
			fmt.Fprintf(&b, "  w%d:%d", slot, w.Done)
			if w.Busy != "" {
				busy := ""
				if w.BusySinceMS > 0 && m.LastTMS >= w.BusySinceMS {
					busy = " " + round(time.Duration(m.LastTMS-w.BusySinceMS)*time.Millisecond).String()
				}
				fmt.Fprintf(&b, " (%s%s)", w.Busy, busy)
			}
		}
		b.WriteByte('\n')
	}

	if len(m.Faults) > 0 {
		scopes := make([]string, 0, len(m.Faults))
		for s := range m.Faults {
			scopes = append(scopes, s)
		}
		sort.Strings(scopes)
		b.WriteString("faults")
		for _, s := range scopes {
			f := m.Faults[s]
			fmt.Fprintf(&b, "  %s open@op%d x%.2f", f.Scope, f.OpenedAtOp, f.RateFactor)
		}
		b.WriteByte('\n')
	}

	if len(m.Verdicts) > 0 {
		fmt.Fprintf(&b, "fidelity  %s\n", m.verdictLine())
	}

	b.WriteString(m.sloPanel())

	for _, r := range m.Regressions {
		fmt.Fprintf(&b, "REGRESSION  %s %.2fx (%s)\n", r.Name, r.Ratio, r.Detail)
	}

	return b.String()
}

// bar renders a [####....] progress bar.
func bar(done, total int) string {
	fill := 0
	if total > 0 {
		fill = done * barWidth / total
	}
	if fill > barWidth {
		fill = barWidth
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", barWidth-fill) + "]"
}

// round trims durations to a display-friendly precision.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second)
	case d >= time.Second:
		return d.Round(100 * time.Millisecond)
	default:
		return d.Round(time.Millisecond)
	}
}
