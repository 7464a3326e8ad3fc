package events

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Handler serves the bus as a Server-Sent Events stream (the /events
// route on the status mux). The protocol is plain SSE:
//
//	: hifi_events_v1
//	id: 17
//	event: job.started
//	data: {"seq":17,"t_ms":...,"type":"job.started","name":"fig14/ferret",...}
//
// Each event's SSE id is its bus sequence number, so the browser/client
// reconnect contract works exactly: a client that reconnects with
// Last-Event-ID: 17 (header, or ?last_event_id=17 for curl-style
// clients) first receives a replay of every ring-buffered event with
// seq > 17, then the live stream. Events older than the ring are gone;
// the client detects the gap from the first replayed id.
//
// The stream never blocks Emit: a client that reads too slowly has
// events dropped (counted in hifi_events_dropped_total) and recovers
// them by reconnecting with its last seen id.
//
// Returns a 200 with an empty comment-only stream when the bus is nil,
// matching the empty-but-valid contract of the other status routes.
func Handler(b *Bus) http.Handler {
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

		// Subscribe before the handshake: a client that has read the
		// handshake is subscribed, so every event emitted after that
		// reaches its stream (or counts as a drop). Nil-safe.
		replay, ch, cancel := b.Subscribe(lastEventID(r), 256)
		defer cancel()

		// Handshake comment: names the schema and confirms the stream is
		// open before any event arrives.
		fmt.Fprintf(w, ": %s\n\n", SchemaV1)
		if err := fl.Flush(); err != nil {
			return
		}

		if b == nil {
			// Empty-but-valid: hold the stream open until the client goes
			// away, exactly like a bus that never emits.
			<-r.Context().Done()
			return
		}

		for _, e := range replay {
			if err := writeSSE(w, e); err != nil {
				return
			}
		}
		if err := fl.Flush(); err != nil {
			return
		}

		for {
			select {
			case e, ok := <-ch:
				if !ok {
					return
				}
				if err := writeSSE(w, e); err != nil {
					return
				}
				// Flush per event: latency beats throughput on a
				// human-watched dashboard stream.
				if err := fl.Flush(); err != nil {
					return
				}
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

// writeSSE renders one event as an SSE frame.
func writeSSE(w http.ResponseWriter, e Event) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, b)
	return err
}
