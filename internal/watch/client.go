package watch

// hifi-serve client mode: follow one job's SSE stream, detect replay
// gaps by sequence number, and degrade to polling the job's status
// route when the stream can no longer reconstruct complete state.
//
// A job bus numbers its events 1..N with no holes, and the SSE route
// replays from the ring on reconnect (Last-Event-ID). When the ring has
// wrapped past the client's cursor, the first replayed event jumps the
// cursor by more than one — that is the gap signal. A gapped dashboard
// would silently undercount (jobs, cache hits, faults), so the client
// switches to GET /v1/jobs/{id}, whose counters are authoritative.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"racetrack/hifi/internal/serve"
	"racetrack/hifi/internal/telemetry/events"
)

// ErrReplayGap reports that the server's SSE replay ring dropped events
// between the client's cursor and the oldest retained event; the stream
// can no longer reconstruct complete state and the caller should fall
// back to PollJob.
var ErrReplayGap = errors.New("watch: SSE replay gap (events lost); falling back to status polling")

// pollFailLimit bounds consecutive poll errors before PollJob gives up.
const pollFailLimit = 5

// JobEventsURL builds a job's SSE route on a hifi-serve server.
func JobEventsURL(server, id string) string {
	return strings.TrimRight(server, "/") + "/v1/jobs/" + id + "/events"
}

// JobStatusURL builds a job's pollable status route.
func JobStatusURL(server, id string) string {
	return strings.TrimRight(server, "/") + "/v1/jobs/" + id
}

// FollowJob streams one hifi-serve job's events into apply until the
// job's terminal event arrives (serve.job.finished/failed/canceled is by
// contract the stream's last event), a replay gap is detected, or ctx
// ends. Returns nil after the terminal event, ErrReplayGap on a gap, and
// ctx.Err() on cancellation; transient connection errors reconnect with
// the Last-Event-ID cursor.
func FollowJob(ctx context.Context, server, id string, apply func(events.Event)) error {
	url := JobEventsURL(server, id)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		lastID   uint64 // streamSSE's reconnect cursor
		cursor   uint64 // last seq actually applied
		gap      bool
		terminal bool
	)
	retry := newReconnectBackoff()
	wrapped := func(e events.Event) {
		if gap || terminal {
			return
		}
		// An applied event means the connection works: the next outage
		// starts the backoff schedule from the base delay again.
		retry.reset()
		if e.Seq > cursor+1 {
			// The ring wrapped past us: events between cursor and e.Seq
			// are gone for good.
			gap = true
			cancel()
			return
		}
		cursor = e.Seq
		apply(e)
		switch e.Type {
		case events.ServeJobFinished, events.ServeJobFailed, events.ServeJobCanceled:
			terminal = true
			cancel()
		}
	}
	for {
		err := streamSSE(sctx, url, &lastID, wrapped)
		switch {
		case terminal:
			return nil
		case gap:
			return ErrReplayGap
		case ctx.Err() != nil:
			return ctx.Err()
		}
		_ = err // transient: reconnect with the replay cursor
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(retry.next()):
		}
	}
}

// PollJob is the SSE fallback: fetch GET /v1/jobs/{id} every interval,
// hand each status to onStatus, and return once the job is terminal.
// Gives up after pollFailLimit consecutive fetch errors.
func PollJob(ctx context.Context, server, id string, every time.Duration, onStatus func(serve.JobStatus)) error {
	if every <= 0 {
		every = time.Second
	}
	url := JobStatusURL(server, id)
	retry := newReconnectBackoff()
	fails := 0
	for {
		st, err := fetchStatus(ctx, url)
		wait := every
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if fails++; fails >= pollFailLimit {
				return fmt.Errorf("watch: polling %s: %w", url, err)
			}
			// A failing poll backs off like a failing SSE connection:
			// an unreachable server is probed gently, not per-interval.
			wait = retry.next()
		} else {
			fails = 0
			retry.reset()
			onStatus(st)
			if st.State.Terminal() {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

func fetchStatus(ctx context.Context, url string) (serve.JobStatus, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return st, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("watch: %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("watch: %s: %w", url, err)
	}
	return st, nil
}

// ApplyStatus folds a polled JobStatus into the model — the degraded
// path after a replay gap. The poll body's engine counters are
// authoritative and overwrite the (gapped) event-derived ones.
func (m *Model) ApplyStatus(st serve.JobStatus) {
	m.Polling = true
	m.setJob(st.ID, string(st.State), st.Error)
	if st.EventsSeq > m.LastSeq {
		m.LastSeq = st.EventsSeq
	}
	if eng := st.Engine; eng != nil {
		m.Queued = int(eng.Jobs)
		m.Done = int(eng.Executed)
		m.CacheHits = int(eng.CacheHits)
		m.Failed = int(eng.Failures)
	}
	if st.State.Terminal() {
		m.Finished = true
		m.RunMS = st.WallMS
	}
}
