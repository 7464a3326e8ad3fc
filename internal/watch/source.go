package watch

// Event sources: the SSE /events route of a running hifi-* process and
// the NDJSON event log written by -events-out. Both deliver
// events.Event values to a caller-supplied apply function; the caller
// owns locking between apply and Render.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"racetrack/hifi/internal/telemetry/events"
)

// IsURL reports whether the source argument names an SSE endpoint
// rather than an NDJSON file on disk.
func IsURL(source string) bool {
	return strings.HasPrefix(source, "http://") || strings.HasPrefix(source, "https://")
}

// ReadFileInto folds a complete NDJSON event log into the model —
// the -once path. A truncated final line (killed producer) is
// tolerated by the reader.
func ReadFileInto(m *Model, path string) error {
	hdr, evs, err := events.ReadLogFile(path)
	if err != nil {
		return err
	}
	m.SetTool(hdr.Tool)
	for _, e := range evs {
		m.Apply(e)
	}
	return nil
}

// TailFile reads the NDJSON log at path and keeps applying lines as
// the producer appends them, until ctx ends. onHeader fires once if
// the file opens with a schema header line.
func TailFile(ctx context.Context, path string, onHeader func(events.Header), apply func(events.Event)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	r := bufio.NewReader(f)
	var partial []byte
	first := true
	for {
		chunk, err := r.ReadBytes('\n')
		partial = append(partial, chunk...)
		if err == nil {
			line := bytes.TrimSpace(partial)
			partial = partial[:0]
			if len(line) == 0 {
				continue
			}
			if first {
				first = false
				var hdr events.Header
				if json.Unmarshal(line, &hdr) == nil && hdr.Schema != "" {
					if onHeader != nil {
						onHeader(hdr)
					}
					continue
				}
			}
			var e events.Event
			if jerr := json.Unmarshal(line, &e); jerr != nil {
				return fmt.Errorf("watch: bad event line: %w", jerr)
			}
			apply(e)
			continue
		}
		if err != io.EOF {
			return err
		}
		// At the current end of the file: wait for the producer to
		// append more (a partial line stays buffered until its newline
		// lands).
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}

// FollowSSE connects to url (a status mux /events route), applies the
// replayed and live events, and reconnects with Last-Event-ID after
// connection loss, until ctx ends. Returns ctx.Err() on cancellation;
// connection errors are retried, not returned.
func FollowSSE(ctx context.Context, url string, apply func(events.Event)) error {
	var lastID uint64
	retry := newReconnectBackoff()
	for {
		applied := false
		err := streamSSE(ctx, url, &lastID, func(e events.Event) {
			applied = true
			apply(e)
		})
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if applied {
			// Events flowed on that connection: start the next outage's
			// backoff schedule from the base delay.
			retry.reset()
		}
		_ = err // transient: reconnect with the replay cursor
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(retry.next()):
		}
	}
}

// streamSSE runs one SSE connection: frames are `id:`/`event:`/`data:`
// lines terminated by a blank line; `:` lines are comments (the
// handshake). The bus emits single-line JSON, so one data line is one
// event. lastID is the reconnect cursor: the Seq of the last event
// applied, which falls when a restarted server numbers its events from
// 1 again, so a reconnect asks for exactly what that server emitted
// after it.
func streamSSE(ctx context.Context, url string, lastID *uint64, apply func(events.Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if *lastID > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(*lastID))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch: %s: %s", url, resp.Status)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if len(data) > 0 {
				var e events.Event
				if jerr := json.Unmarshal(data, &e); jerr != nil {
					return fmt.Errorf("watch: bad SSE data: %w", jerr)
				}
				*lastID = e.Seq
				apply(e)
				data = data[:0]
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimSpace(strings.TrimPrefix(line, "data:"))...)
		default:
			// id:/event:/comment lines — Seq inside the payload is
			// authoritative for the replay cursor.
		}
	}
	return sc.Err()
}
