package events

import (
	"io"
	"net/http"
	"strconv"
)

// Handler serves the bus as a Server-Sent Events stream (the /events
// routes). The protocol is plain SSE:
//
//	: hifi_events_v1
//	id: 17
//	event: job.started
//	data: {"seq":17,"t_ms":...,"type":"job.started","name":"fig14/ferret",...}
//
// Each event's SSE id is its bus sequence number, so the browser/client
// reconnect contract works exactly: a client that reconnects with
// Last-Event-ID: 17 (header, or ?last_event_id=17 for curl-style
// clients) receives every retained event with seq > 17, then each new
// one as it is emitted. An id beyond the bus's sequence (a client that
// outlived a restart of the emitting process) counts as the current
// sequence: nothing is replayed, and every later event follows.
//
// The stream is one loop over Bus.Since with the last id written as
// its cursor, so it never blocks Emit and never drops an event the ring
// still holds: a client that falls more than the ring behind resumes at
// the oldest retained event, and the jump in ids shows the gap. Each
// batch Since returns is encoded into the stream's one frame buffer,
// written every sseChunk bytes and at the batch's end, and flushed
// once.
//
// The stream ends when the client goes away, or, once done is closed,
// right after the events emitted before it closed. A nil done never
// closes. A nil bus serves a 200 with a comment-only stream, matching
// the empty-but-valid contract of the other status routes.
func Handler(b *Bus, done <-chan struct{}) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The controller surfaces flush errors (including "streaming
		// unsupported"), so a dead or non-streaming client ends the
		// handler instead of being ignored.
		fl := http.NewResponseController(w)
		h := w.Header()
		h.Set("Content-Type", "text/event-stream; charset=utf-8")
		h.Set("Cache-Control", "no-store")
		h.Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)

		// Fix the cursor before the handshake: a client that has read
		// the handshake sees every event emitted after it.
		cursor := min(lastEventID(r), b.Seq())

		// Handshake comment: names the schema and confirms the stream is
		// open before any event arrives.
		_, _ = io.WriteString(w, ": "+SchemaV1+"\n\n") // a dead client fails the flush
		if err := fl.Flush(); err != nil {
			return
		}

		var buf []Event
		frames := make([]byte, 0, 2*sseChunk) // encoded frames not yet written
		for {
			// Everything emitted before done closed is in the read below.
			finished := false
			select {
			case <-done:
				finished = true
			default:
			}
			evs, wake := b.Since(cursor, buf[:0])
			for i, e := range evs {
				n := len(frames)
				var err error
				if frames, err = appendSSE(frames, e); err != nil {
					// The frames before it go out; this one and the
					// stream end here.
					_, _ = w.Write(frames[:n])
					return
				}
				cursor = e.Seq
				if len(frames) >= sseChunk || i == len(evs)-1 {
					if _, err := w.Write(frames); err != nil {
						return
					}
					frames = frames[:0]
				}
			}
			if len(evs) > 0 {
				if err := fl.Flush(); err != nil {
					return
				}
			}
			if finished {
				return
			}
			buf = evs
			select {
			case <-wake:
			case <-done:
			case <-r.Context().Done():
				return
			}
		}
	})
}

// lastEventID extracts the client's resume position: the standard SSE
// Last-Event-ID header, or a last_event_id query parameter for clients
// that cannot set headers. 0 means no position — replay everything the
// ring still holds.
func lastEventID(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("last_event_id")
	}
	if v == "" {
		return 0
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// sseChunk is about how many bytes of frames a stream encodes before it
// writes them: a batch of events goes out in writes of about 4 KiB and
// one write of the rest, then one flush, through one buffer per stream.
const sseChunk = 4 << 10

// appendSSE appends e as one SSE frame, its JSON on one data line. On
// an error, from a NaN or infinite V, what it appended is not a frame.
func appendSSE(b []byte, e Event) ([]byte, error) {
	b = strconv.AppendUint(append(b, "id: "...), e.Seq, 10)
	b = append(append(b, "\nevent: "...), e.Type...)
	b, err := appendJSON(append(b, "\ndata: "...), e)
	return append(b, "\n\n"...), err
}
