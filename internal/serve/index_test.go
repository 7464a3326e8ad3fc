package serve

// Crash-safety tests for the job index: a hard-stopped daemon (no
// drain) must come back with every completed job queryable and every
// interrupted job re-queued, torn WAL tails must replay cleanly, and a
// disk that refuses writes must degrade the index — not submissions.
// All run under -race in CI.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"racetrack/hifi/internal/engine/faultfs"
	"racetrack/hifi/internal/telemetry/log"
)

// crashStop emulates kill -9 as closely as an in-process test can: the
// index stops writing first (the WAL on disk stays exactly as the crash
// would leave it), then the runners are torn down without any of the
// drain protocol — no requeued records, no compaction, no terminal
// records for whatever was in flight.
func (s *Server) crashStop() {
	s.index.seal()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel(errors.New("test: simulated crash"))
	s.wg.Wait()
}

// waitIndexed waits until the job index on disk holds j's terminal
// record.
func waitIndexed(t *testing.T, s *Server, j *Job) {
	t.Helper()
	want := indexRecord{Op: string(j.State()), ID: j.ID}
	deadline := time.Now().Add(30 * time.Second)
	for {
		content, err := s.index.fsys.ReadFile(s.indexPath())
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(content, []byte("\n")) {
			var rec indexRecord
			if json.Unmarshal(line, &rec) == nil && rec.Op == want.Op && rec.ID == want.ID {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s's %q record never reached the index", j.ID, want.Op)
		}
		time.Sleep(time.Millisecond)
	}
}

// The tentpole property: submit jobs, hard-stop the daemon mid-queue,
// restart against the same cache directory, and observe (1) completed
// statuses restored and their tables re-served byte-identically with
// executed=0, (2) interrupted jobs re-queued under their original IDs,
// and (3) resubmissions of completed specs served from cache.
func TestCrashRecoveryRestoresAndRequeues(t *testing.T) {
	opts := testOptions(t)
	hold := make(chan struct{})
	opts.hold = hold
	release := closeOnce(t, hold)
	srv := New(opts)

	specA, specB, specC := quickSpec(), quickSpec(), quickSpec()
	specB.Seed = 2
	specC.Seed = 3

	jA, _, err := srv.Submit(specA, "c")
	if err != nil {
		t.Fatal(err)
	}
	hold <- struct{}{} // let exactly one runner take job A
	waitDone(t, jA)
	if st := jA.State(); st != StateDone {
		t.Fatalf("job A ended %s (%s)", st, jA.Status().Error)
	}
	// finalize closes Done() before it appends A's terminal record, so
	// the seal below must wait for the record or resume re-queues A too.
	waitIndexed(t, srv, jA)
	wantText := jA.Text()

	jB, _, err := srv.Submit(specB, "c")
	if err != nil {
		t.Fatal(err)
	}
	jC, _, err := srv.Submit(specC, "c")
	if err != nil {
		t.Fatal(err)
	}

	// Freeze the WAL at the crash point BEFORE releasing the held
	// runners: whatever they do to B and C during teardown happens only
	// in the memory of a process that is "dead" — the on-disk index
	// still says admitted-but-never-finished, which is what a real
	// kill -9 leaves.
	srv.index.seal()
	release()
	srv.crashStop()

	// Restart against the same cache dir (same index path).
	opts2 := testOptions(t)
	opts2.CacheDir = opts.CacheDir
	srv2 := newTestServer(t, opts2)
	if n := srv2.Resume(); n != 2 {
		t.Fatalf("resume re-queued %d job(s), want 2", n)
	}

	// (1) The completed job answers across the restart.
	rA, ok := srv2.Job(jA.ID)
	if !ok {
		t.Fatalf("completed job %s not restored", jA.ID)
	}
	st := rA.Status()
	if !st.Restored || st.State != StateDone || st.FinishedTMS == 0 {
		t.Fatalf("restored status wrong: restored=%v state=%s finished=%d", st.Restored, st.State, st.FinishedTMS)
	}
	// Its tables re-materialize through the shared cache, byte-identical
	// and with zero executions.
	tables, _, err := srv2.tablesFor(rA)
	if err != nil {
		t.Fatal(err)
	}
	if tables == nil {
		t.Fatalf("restored job has no tables after materialization")
	}
	if got := rA.Text(); got != wantText {
		t.Fatalf("restored tables differ from the pre-crash run:\nrestored:\n%s\noriginal:\n%s", got, wantText)
	}
	if eng := rA.Status().Engine; eng == nil || eng.Executed != 0 {
		t.Fatalf("re-materialization executed simulations: %+v", eng)
	}

	// (2) Interrupted jobs run again under their original IDs.
	for _, orig := range []*Job{jB, jC} {
		rj, ok := srv2.Job(orig.ID)
		if !ok {
			t.Fatalf("interrupted job %s not re-queued", orig.ID)
		}
		if rj.Status().Restored {
			t.Fatalf("re-queued job %s marked restored", rj.ID)
		}
		waitDone(t, rj)
		if st := rj.State(); st != StateDone {
			t.Fatalf("re-queued job %s ended %s (%s)", rj.ID, st, rj.Status().Error)
		}
	}

	// (3) A resubmission of the completed spec is a fresh cache-served
	// job: executed stays zero.
	j2, deduped, err := srv2.Submit(specA, "c2")
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatalf("resubmission coalesced onto a restored job")
	}
	waitDone(t, j2)
	if eng := j2.Status().Engine; eng == nil || eng.Executed != 0 {
		t.Fatalf("resubmitted spec executed simulations: %+v", eng)
	}
}

// damagedIndex is a WAL with a garbled middle record and a torn final
// append (no newline, no close brace).
const damagedIndex = `{"schema":"hifi_serve_index_v1"}
{"op":"admitted","id":"j0001","fingerprint":"f1","spec":{"run":["fig14"],"scaled":true,"accesses":300},"t_ms":100}
{"op":"started","id":"j0001","t_ms":110}
{"op":"done","id":"j0001","t_ms":200}
this line is not JSON at all
{"op":"admitted","id":"j0002","fingerprint":"f2","spec":{"run":["fig14"],"scaled":true,"accesses":300},"t_ms":300}
{"op":"started","id":"j0002","t_m`

// A torn final line (the killed append) replays silently; a garbled
// middle record is skipped without poisoning its neighbors.
func TestIndexReplayTornTailAndGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "serve.index.ndjson")
	if err := os.WriteFile(path, []byte(damagedIndex), 0o644); err != nil {
		t.Fatal(err)
	}

	ix, restored := openIndex(path, nil, 0, indexTelemetry{}, nil)
	if ix.Degraded() {
		t.Fatalf("replayable index came up degraded")
	}
	if len(restored) != 2 {
		t.Fatalf("replayed %d job(s), want 2: %+v", len(restored), restored)
	}
	if restored[0].id != "j0001" || restored[0].state != StateDone || restored[0].finishedTMS != 200 {
		t.Fatalf("j0001 replayed wrong: %+v", restored[0])
	}
	// The torn started record is lost; j0002 degrades to its last intact
	// state (queued) — recoverable work, never wrong state.
	if restored[1].id != "j0002" || restored[1].state != StateQueued {
		t.Fatalf("j0002 replayed wrong: %+v", restored[1])
	}
}

// FuzzIndexReplay: no WAL content panics the replay, and whatever it
// restores is well formed — a non-empty ID, one of the five states, and
// sorted by numeric job ID. The seeds are the damaged logs of
// TestIndexReplayTornTailAndGarbage and engine's
// TestReplayLinesSkipsCorruptMiddleRecord.
func FuzzIndexReplay(f *testing.F) {
	f.Add([]byte(damagedIndex))
	f.Add([]byte(`{"seq":1,"key":"k1","hash":"aaa","attempts":1,"dur_ms":1}
{"seq":2,"key":"k2","ha
not json at all
{"seq":4,"key":"k4","hash":"ddd","attempts":1,"dur_ms":1}
{"seq":9,"key":"torn`))
	prev := log.GetLevel()
	log.SetLevel(log.Quiet) // every skipped record would log
	f.Cleanup(func() { log.SetLevel(prev) })
	f.Fuzz(func(t *testing.T, content []byte) {
		restored := (&jobIndex{path: "fuzz"}).replay(content)
		for i, r := range restored {
			if r.id == "" {
				t.Fatalf("restored job %d has no ID: %+v", i, r)
			}
			switch r.state {
			case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
			default:
				t.Fatalf("restored job %s has state %q", r.id, r.state)
			}
			if i > 0 && jobIDNum(restored[i-1].id) > jobIDNum(r.id) {
				t.Fatalf("restored jobs out of order: %s before %s", restored[i-1].id, r.id)
			}
		}
	})
}

// An unwritable index degrades to in-memory-only and must never fail a
// submission; /healthz reports the degradation.
func TestIndexDegradedNeverFailsSubmissions(t *testing.T) {
	for name, fsOpts := range map[string]faultfs.Options{
		"read-only":  {ReadOnly: true},
		"torn-every": {TornWriteEveryNth: 1},
	} {
		t.Run(name, func(t *testing.T) {
			opts := testOptions(t)
			opts.indexFS = faultfs.New(nil, fsOpts)
			srv := newTestServer(t, opts)

			j, _, err := srv.Submit(quickSpec(), "c")
			if err != nil {
				t.Fatalf("submission failed on a degraded index: %v", err)
			}
			waitDone(t, j)
			if st := j.State(); st != StateDone {
				t.Fatalf("job ended %s (%s)", st, j.Status().Error)
			}
			if !srv.index.Degraded() {
				t.Fatalf("index not degraded under %s faults", name)
			}
			var body strings.Builder
			if err := srv.health.WriteJSON(&body); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(body.String(), `"degraded":["job-index"]`) {
				t.Fatalf("healthz does not report the degraded index: %s", body.String())
			}
		})
	}
}

// Compaction keeps the WAL O(jobs) and heals a degraded index: the
// rewrite re-persists the full state a sick disk lost.
func TestIndexCompactionBoundsWALAndHeals(t *testing.T) {
	opts := testOptions(t)
	opts.indexCompactEvery = 2 // force compactions constantly
	srv := newTestServer(t, opts)

	var last *Job
	for i := 1; i <= 4; i++ {
		sp := quickSpec()
		sp.Seed = uint64(i)
		j, _, err := srv.Submit(sp, "c")
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		last = j
	}
	_ = last

	b, err := os.ReadFile(srv.indexPath())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(b), "\n")
	// 4 jobs × 3 transitions = 12 appends without compaction; with
	// compactEvery=2 the file must stay near one snapshot per job.
	if lines > 8 {
		t.Fatalf("compaction did not bound the WAL: %d lines\n%s", lines, b)
	}

	// Heal: a degraded index recovers when a compaction succeeds.
	srv.index.mu.Lock()
	srv.index.degraded = true
	srv.index.mu.Unlock()
	srv.compactIndex()
	if srv.index.Degraded() {
		t.Fatalf("successful compaction did not heal the degraded index")
	}

	// The compacted WAL replays to the full job set.
	_, restored := openIndex(srv.indexPath(), nil, 0, indexTelemetry{}, nil)
	if len(restored) != 4 {
		t.Fatalf("compacted WAL replays %d job(s), want 4", len(restored))
	}
	for _, r := range restored {
		if r.state != StateDone {
			t.Fatalf("replayed job %s is %s, want done", r.id, r.state)
		}
	}
}
