package events

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// The NDJSON event log (-events-out) is one JSON object per line: a
// header identifying the schema, then every event in emission order.
//
//	{"schema":"hifi_events_v1","tool":"hifi-experiments"}
//	{"seq":1,"t_ms":1754649600000,"type":"run.start","name":"hifi-experiments"}
//	{"seq":2,"t_ms":1754649600003,"type":"run.phase","name":"fig14"}
//	...
//
// Append-only and line-oriented, so the file is valid at every instant:
// hifi-watch can tail it while the run is live, and a truncated final
// line (the process died mid-write) spoils nothing before it.

// Header is the first line of an NDJSON event log.
type Header struct {
	Schema string `json:"schema"`
	// Tool is the emitting command ("hifi-experiments").
	Tool string `json:"tool,omitempty"`
}

// WriteHeader writes the hifi_events_v1 header line for tool to w.
func WriteHeader(w io.Writer, tool string) error {
	b, err := json.Marshal(Header{Schema: SchemaV1, Tool: tool})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeNDJSON writes e's line to the sink through the bus's reused line
// buffer. The caller holds b.mu.
func (b *Bus) writeNDJSON(e Event) error {
	line, err := appendJSON(b.line[:0], e)
	if err != nil {
		return err
	}
	b.line = append(line, '\n')
	_, err = b.sink.Write(b.line)
	return err
}

// ReadLog parses an NDJSON event log from r: an optional header line
// followed by event lines. The first non-blank line is the header when
// it parses with a non-empty schema (the rule hifi-watch's tailer
// follows), and an event otherwise. Blank lines are skipped; a
// truncated or malformed final line is tolerated (the process may have
// died mid-write), but a malformed line with valid lines after it is an
// error. Returns the header (zero-valued if the log starts directly
// with an event) and the events in file order.
func ReadLog(r io.Reader) (Header, []Event, error) {
	var hdr Header
	var evs []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	badLine := 0 // most recent unparseable line (tolerated only if last)
	first := true
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if badLine != 0 {
			return hdr, evs, fmt.Errorf("events: log line %d: malformed JSON", badLine)
		}
		if first {
			first = false
			var h Header
			if json.Unmarshal([]byte(line), &h) == nil && h.Schema != "" {
				hdr = h
				continue
			}
		}
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			badLine = lineNo
			continue
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		return hdr, evs, fmt.Errorf("events: read log: %w", err)
	}
	return hdr, evs, nil
}

// ReadLogFile is ReadLog over a file path.
func ReadLogFile(path string) (Header, []Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer func() { _ = f.Close() }()
	return ReadLog(f)
}
