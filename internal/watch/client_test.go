package watch

// Client-mode tests against a real serve daemon: following a job's SSE
// stream to its terminal event, and the replay-gap contract — when the
// server's ring has wrapped past what a client ever saw, FollowJob must
// refuse to present a silently-undercounting dashboard and hand over to
// status polling.

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"racetrack/hifi/internal/serve"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
)

// startServe boots a daemon with the given SSE replay ring size and runs
// one quick sweep to completion.
func startServe(t *testing.T, ringCap int) (*httptest.Server, *serve.Job) {
	t.Helper()
	srv := serve.New(serve.Options{
		CacheDir: t.TempDir(),
		Runners:  1,
		Queue:    4,
		RingCap:  ringCap,
		Metrics:  telemetry.NewRegistry(),
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_, _ = srv.Drain(ctx)
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	j, _, err := srv.Submit(serve.Spec{Run: []string{"fig14"}, Scaled: true, Accesses: 300}, "watcher")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job stuck in %s", j.State())
	}
	if st := j.State(); st != serve.StateDone {
		t.Fatalf("job ended %s (%s)", st, j.Status().Error)
	}
	return ts, j
}

// With an ample ring the whole history replays: FollowJob applies a
// gapless stream and returns nil at the terminal event.
func TestFollowJobCompleteReplay(t *testing.T) {
	ts, j := startServe(t, 0) // events default ring: far larger than one quick job

	m := NewModel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := FollowJob(ctx, ts.URL, j.ID, m.Apply); err != nil {
		t.Fatalf("FollowJob: %v", err)
	}
	if !m.Finished || m.JobState != "done" || m.JobID != j.ID {
		t.Fatalf("model after follow: finished=%v job=%s state=%s", m.Finished, m.JobID, m.JobState)
	}
	if m.Polling {
		t.Fatalf("complete replay flagged as polling fallback")
	}
	if m.LastSeq != j.Bus.Seq() {
		t.Fatalf("applied through seq %d, bus at %d", m.LastSeq, j.Bus.Seq())
	}
}

// With a tiny ring the early events are gone before any client connects:
// the first replayed sequence number jumps past 1, FollowJob reports the
// gap, and the polling fallback still lands the dashboard on the
// authoritative terminal state.
func TestFollowJobReplayGapFallsBackToPolling(t *testing.T) {
	ts, j := startServe(t, 4)

	if seq := j.Bus.Seq(); seq <= 4 {
		t.Fatalf("job emitted only %d events; the ring never wrapped", seq)
	}
	replay, _ := j.Bus.Since(0, nil)
	if len(replay) == 0 || replay[0].Seq <= 1 {
		t.Fatalf("ring did not wrap: first retained seq %d", replay[0].Seq)
	}

	m := NewModel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := FollowJob(ctx, ts.URL, j.ID, m.Apply)
	if !errors.Is(err, ErrReplayGap) {
		t.Fatalf("FollowJob: %v, want ErrReplayGap", err)
	}

	// The hifi-watch composition: gap → poll the status route.
	if err := PollJob(ctx, ts.URL, j.ID, 50*time.Millisecond, m.ApplyStatus); err != nil {
		t.Fatalf("PollJob: %v", err)
	}
	if !m.Polling {
		t.Fatalf("polling fallback not flagged in the model")
	}
	if !m.Finished || m.JobState != "done" {
		t.Fatalf("polled model: finished=%v state=%s", m.Finished, m.JobState)
	}
	st := j.Status()
	if m.Done != int(st.Engine.Executed) || m.CacheHits != int(st.Engine.CacheHits) {
		t.Fatalf("polled counters %d/%d differ from the ledger %+v", m.Done, m.CacheHits, st.Engine)
	}
}

// The reconnect-with-stale-cursor signal FollowJob keys on, checked
// directly against the ring: a replay for a cursor older than the
// ring's tail starts past cursor+1.
func TestRingWrapLeavesDetectableGap(t *testing.T) {
	small := events.New(4)
	for i := 0; i < 10; i++ {
		small.Emit(events.Event{Type: events.RunPhase, Name: "x"})
	}
	replay, _ := small.Since(2, nil)
	if len(replay) == 0 {
		t.Fatalf("no replay")
	}
	if first := replay[0].Seq; first <= 3 {
		t.Fatalf("ring of 4 retained seq %d after 10 events; wrap undetectable", first)
	}
}
