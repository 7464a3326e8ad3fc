package engine

import (
	"bytes"

	"racetrack/hifi/internal/telemetry/log"
)

// ReplayLines feeds each line of an append-only NDJSON log to apply, in
// order, and returns how many lines it skipped. Only a line terminated
// by '\n' was fully written, so an unterminated final line that apply
// rejects is the torn tail of a killed append and is dropped silently.
// Any other rejected line means the file was damaged after the fact: it
// is logged under name, counted, and skipped, and replay carries on
// with the next line. Empty lines are ignored.
func ReplayLines(name string, content []byte, apply func(line []byte) error) (skipped int) {
	lines := bytes.Split(content, []byte{'\n'})
	// Split leaves whatever follows the final '\n' as the last element:
	// empty for a clean log, the torn tail otherwise.
	last := len(lines) - 1
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		if err := apply(line); err != nil && i < last {
			skipped++
			log.Errorf("%s: skipping corrupt record at line %d: %v", name, i+1, err)
		}
	}
	return skipped
}
