package serve

// The daemon's acceptance tests: byte-identity with the CLI, cross-client
// dedup through the shared cache, admission control, cancellation, and
// the drain/resume protocol. All run under -race in CI. Tests
// that need jobs frozen in the queue set Options.hold — the runner gate
// that precedes the dequeue — and release it by closing the channel.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"racetrack/hifi/internal/engine/faultfs"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
)

// quickSpec is the test workhorse: a scaled fig14 sweep short enough for
// unit tests but real enough to exercise the engine and the cache.
func quickSpec() Spec {
	return Spec{Run: []string{"fig14"}, Scaled: true, Accesses: 300}
}

func testOptions(t *testing.T) Options {
	t.Helper()
	return Options{
		CacheDir: t.TempDir(),
		Runners:  2,
		Queue:    16,
		Metrics:  telemetry.NewRegistry(),
	}
}

// newTestServer starts a server and tears it down through Drain, the
// production shutdown path. Tests that set opts.hold must close it
// before the cleanup runs (closeOnce makes that idempotent).
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s := New(opts)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if _, err := s.Drain(ctx); err != nil {
			t.Logf("drain: %v", err)
		}
	})
	return s
}

// closeOnce returns an idempotent closer for a hold channel, registered
// as a cleanup so held runners are always released before Drain.
func closeOnce(t *testing.T, ch chan struct{}) func() {
	t.Helper()
	done := false
	release := func() {
		if !done {
			done = true
			close(ch)
		}
	}
	t.Cleanup(release)
	return release
}

func waitRunning(t *testing.T, j *Job) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started (state %s)", j.ID, j.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s did not reach a terminal state (still %s)", j.ID, j.State())
	}
}

// A job's stream tells its sweep in order: accepted, started, one
// run.phase per experiment key before that experiment's simulations,
// then the terminal event last.
func TestJobStreamOrder(t *testing.T) {
	srv := newTestServer(t, testOptions(t))
	j, _, err := srv.Submit(Spec{Run: []string{"table3", "fig14"}, Scaled: true, Accesses: 300}, "c")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	evs, _ := j.Bus.Since(0, nil)
	var got []string
	for _, e := range evs {
		switch {
		case strings.HasPrefix(string(e.Type), "serve.job."):
			got = append(got, string(e.Type))
		case e.Type == events.RunPhase && !strings.HasPrefix(e.Name, "memsim:"):
			got = append(got, "phase:"+e.Name)
		case e.Type == events.JobQueued && (len(got) == 0 || got[len(got)-1] != "phase:fig14"):
			t.Fatalf("a simulation was queued before fig14's phase: %v", got)
		}
	}
	want := "serve.job.accepted,serve.job.started,phase:table3,phase:fig14,serve.job.finished"
	if strings.Join(got, ",") != want {
		t.Fatalf("job stream = %v, want %s", got, want)
	}
}

// The core determinism claim: the daemon's rendered tables are
// byte-identical to a direct experiments run with the same knobs, and a
// spec resubmitted after completion runs entirely from the shared cache
// — a fresh job whose engine ledger shows zero executed simulations.
func TestSubmitByteIdenticalAndCacheServedResubmit(t *testing.T) {
	srv := newTestServer(t, testOptions(t))

	j1, deduped, err := srv.Submit(quickSpec(), "client-a")
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatalf("first submission reported deduped")
	}
	waitDone(t, j1)
	if st := j1.State(); st != StateDone {
		t.Fatalf("job 1 state %s, error %q", st, j1.Status().Error)
	}

	// The CLI-equivalent run, built the way cmd/hifi-experiments builds
	// it from -scaled -run fig14 -accesses 300.
	opts := experiments.QuickRunOpts()
	opts.AccessesPerCore = 300
	tab, err := experiments.Run("fig14", opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := tab.String(); j1.Text() != want {
		t.Fatalf("served tables differ from a direct run:\nserved:\n%s\ndirect:\n%s", j1.Text(), want)
	}
	st1 := j1.Status()
	if st1.Engine == nil || st1.Engine.Executed == 0 {
		t.Fatalf("first run executed nothing: %+v", st1.Engine)
	}

	// Resubmit after completion: a fresh job (the finished one left the
	// dedup table) that the shared cache serves without recomputing.
	j2, deduped, err := srv.Submit(quickSpec(), "client-b")
	if err != nil {
		t.Fatal(err)
	}
	if deduped || j2.ID == j1.ID {
		t.Fatalf("resubmission after completion coalesced onto the finished job")
	}
	waitDone(t, j2)
	if st := j2.State(); st != StateDone {
		t.Fatalf("job 2 state %s, error %q", st, j2.Status().Error)
	}
	if j2.Text() != j1.Text() {
		t.Fatalf("cache-served run rendered different bytes")
	}
	st2 := j2.Status()
	if st2.Engine == nil {
		t.Fatalf("job 2 has no engine ledger")
	}
	if st2.Engine.Executed != 0 {
		t.Fatalf("resubmission executed %d simulation(s); want 0 (all cache hits)", st2.Engine.Executed)
	}
	if st2.Engine.CacheHits == 0 || st2.Engine.CacheHits != st2.Engine.Jobs {
		t.Fatalf("resubmission ledger %+v; want every job a cache hit", st2.Engine)
	}

	// The resubmission read its results back into the cache's shared
	// memo, so a second one reads no cache object: with every bucket
	// file gone it still executes nothing, where a read would have
	// missed and simulated.
	packs, err := filepath.Glob(filepath.Join(srv.opts.CacheDir, "objects", "*.pack"))
	if err != nil || len(packs) == 0 {
		t.Fatalf("no bucket files to remove (%v)", err)
	}
	for _, p := range packs {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	j3, _, err := srv.Submit(quickSpec(), "client-c")
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j3)
	if st := j3.State(); st != StateDone {
		t.Fatalf("job 3 state %s, error %q", st, j3.Status().Error)
	}
	if j3.Text() != j1.Text() {
		t.Fatalf("second resubmission rendered different bytes")
	}
	if st3 := j3.Status().Engine; st3 == nil || st3.Executed != 0 ||
		st3.Jobs != st2.Engine.Jobs || st3.CacheHits != st2.Engine.CacheHits {
		t.Fatalf("second resubmission ledger %+v; want the first's, %+v", st3, st2.Engine)
	}
}

// A spec equal to a queued/running one coalesces onto that job instead
// of spawning a second computation.
func TestDedupCoalescesOntoLiveJob(t *testing.T) {
	opts := testOptions(t)
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	release := closeOnce(t, hold)

	j1, deduped, err := srv.Submit(quickSpec(), "client-a")
	if err != nil || deduped {
		t.Fatalf("first submit: deduped=%v err=%v", deduped, err)
	}
	j2, deduped, err := srv.Submit(quickSpec(), "client-b")
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || j2 != j1 {
		t.Fatalf("identical live spec did not coalesce: deduped=%v j1=%s j2=%s", deduped, j1.ID, j2.ID)
	}
	if subs := j1.Status().Subscribers; subs != 2 {
		t.Fatalf("subscribers = %d, want 2", subs)
	}
	if got, _ := srv.opts.Metrics.Snapshot().Lookup(telemetry.MetricServeDeduped); got != 1 {
		t.Fatalf("%s = %v, want 1", telemetry.MetricServeDeduped, got)
	}

	release()
	waitDone(t, j1)
	if st := j1.State(); st != StateDone {
		t.Fatalf("coalesced job ended %s", st)
	}
	// The job-bus deduped event precedes the terminal event, which is
	// still the stream's last — the per-job-stream ordering contract.
	replay, _ := j1.Bus.Since(0, nil)
	dedupAt := -1
	for i, e := range replay {
		if e.Type == events.ServeJobDeduped {
			dedupAt = i
		}
	}
	if dedupAt < 0 {
		t.Fatalf("job bus never saw the deduped event: %+v", replay)
	}
	if last := replay[len(replay)-1].Type; last != events.ServeJobFinished {
		t.Fatalf("job stream ends with %s, want the terminal event", last)
	}
}

func TestQueueFullRejects(t *testing.T) {
	opts := testOptions(t)
	opts.Queue = 2
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	closeOnce(t, hold)

	a := quickSpec()
	b := quickSpec()
	b.Seed = 2
	c := quickSpec()
	c.Seed = 3
	if _, _, err := srv.Submit(a, "c"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(b, "c"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(c, "c"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if got, _ := srv.opts.Metrics.Snapshot().Lookup(telemetry.MetricServeRejectedQueue); got != 1 {
		t.Fatalf("%s = %v, want 1", telemetry.MetricServeRejectedQueue, got)
	}
}

func TestQuotaRejectsPerClient(t *testing.T) {
	opts := testOptions(t)
	opts.Rate = 0.5
	opts.Burst = 2
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	closeOnce(t, hold)

	spec := func(seed uint64) Spec {
		s := quickSpec()
		s.Seed = seed
		return s
	}
	if _, _, err := srv.Submit(spec(1), "alice"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(spec(2), "alice"); err != nil {
		t.Fatal(err)
	}
	_, _, err := srv.Submit(spec(3), "alice")
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("third submit: %v, want QuotaError", err)
	}
	if qe.RetryAfter < time.Second {
		t.Fatalf("RetryAfter %s, want at least a whole second", qe.RetryAfter)
	}
	// Another client's bucket is untouched.
	if _, _, err := srv.Submit(spec(4), "bob"); err != nil {
		t.Fatalf("bob rejected: %v", err)
	}
}

func TestRequireToken(t *testing.T) {
	opts := testOptions(t)
	opts.RequireToken = true
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	closeOnce(t, hold)

	if _, _, err := srv.Submit(quickSpec(), ""); !errors.Is(err, ErrTokenRequired) {
		t.Fatalf("anonymous submit: %v, want ErrTokenRequired", err)
	}
	if _, _, err := srv.Submit(quickSpec(), "tok-1"); err != nil {
		t.Fatalf("tokened submit: %v", err)
	}
}

func TestMaxAccessesCap(t *testing.T) {
	opts := testOptions(t)
	opts.MaxAccesses = 1000
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	closeOnce(t, hold)

	big := quickSpec()
	big.Accesses = 5000
	if _, _, err := srv.Submit(big, "c"); err == nil {
		t.Fatalf("oversized spec admitted")
	}
	if _, _, err := srv.Submit(quickSpec(), "c"); err != nil {
		t.Fatal(err)
	}
}

// Canceling a queued job finalizes it immediately; the runner that later
// dequeues it skips it. The terminal event is the job stream's last.
func TestCancelQueued(t *testing.T) {
	opts := testOptions(t)
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	release := closeOnce(t, hold)

	j, _, err := srv.Submit(quickSpec(), "c")
	if err != nil {
		t.Fatal(err)
	}
	if !srv.Cancel(j.ID) {
		t.Fatalf("cancel of queued job returned false")
	}
	waitDone(t, j)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s, want canceled", st)
	}
	if srv.Cancel(j.ID) {
		t.Fatalf("second cancel of a terminal job returned true")
	}
	replay, _ := j.Bus.Since(0, nil)
	if len(replay) == 0 || replay[len(replay)-1].Type != events.ServeJobCanceled {
		t.Fatalf("job stream does not end with the terminal event: %+v", replay)
	}
	release() // runner dequeues the corpse and must skip it quietly
}

// Canceling a running job cancels its context; the engine unwinds and
// the job finalizes as canceled.
func TestCancelRunning(t *testing.T) {
	srv := newTestServer(t, testOptions(t))

	long := quickSpec()
	long.Accesses = 50_000 // a few seconds of simulation: a wide cancel window
	j, _, err := srv.Submit(long, "c")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	if !srv.Cancel(j.ID) {
		t.Fatalf("cancel of running job returned false")
	}
	waitDone(t, j)
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s, want canceled", st)
	}
	replay, _ := j.Bus.Since(0, nil)
	if replay[len(replay)-1].Type != events.ServeJobCanceled {
		t.Fatalf("job stream does not end with the terminal event")
	}
}

// drainResult is what a Drain run in the background returned.
type drainResult struct {
	n   int
	err error
}

func drainAsync(srv *Server) <-chan drainResult {
	resc := make(chan drainResult, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		n, err := srv.Drain(ctx)
		resc <- drainResult{n, err}
	}()
	return resc
}

// untilDraining submits spec until the server refuses it with
// ErrDraining. Drain sets draining, empties the queue, and closes it
// inside one critical section, so once a submit sees ErrDraining all of
// that has happened, and releasing held runners cannot race the
// leftover collection. spec must coalesce onto a live job, or the
// probes would queue jobs of their own.
func untilDraining(srv *Server, spec Spec) {
	for {
		if _, _, err := srv.Submit(spec, "late"); errors.Is(err, ErrDraining) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// successor starts a server on the same cache dir (the same job index)
// as opts, the way hifi-serve restarts with -resume.
func successor(t *testing.T, opts Options) *Server {
	t.Helper()
	opts2 := testOptions(t)
	opts2.CacheDir = opts.CacheDir
	return newTestServer(t, opts2)
}

// Drain leaves still-queued jobs queued in the job index, and a -resume
// successor re-runs each of them once, under its original ID and trace.
func TestDrainRequeuesQueueUnderOriginalIDs(t *testing.T) {
	opts := testOptions(t)
	hold := make(chan struct{})
	opts.hold = hold
	release := closeOnce(t, hold)
	srv := New(opts) // not newTestServer: this test drives Drain itself

	a := quickSpec()
	b := quickSpec()
	b.Seed = 2
	ja, _, err := srv.Submit(a, "c")
	if err != nil {
		t.Fatal(err)
	}
	jb, _, err := srv.Submit(b, "c")
	if err != nil {
		t.Fatal(err)
	}

	resc := drainAsync(srv)
	untilDraining(srv, a)
	release()
	res := <-resc
	if res.err != nil {
		t.Fatalf("drain: %v", res.err)
	}
	if res.n != 2 {
		t.Fatalf("drain left %d job(s) resumable, want 2", res.n)
	}
	if ja.State() != StateCanceled || jb.State() != StateCanceled {
		t.Fatalf("drained jobs not canceled: %s %s", ja.State(), jb.State())
	}

	srv2 := successor(t, opts)
	if n := srv2.Resume(); n != 2 {
		t.Fatalf("resume re-queued %d job(s), want 2", n)
	}
	if jobs := srv2.Jobs(); len(jobs) != 2 {
		t.Fatalf("successor has %d job(s), want 2", len(jobs))
	}
	for _, orig := range []*Job{ja, jb} {
		j, ok := srv2.Job(orig.ID)
		if !ok {
			t.Fatalf("drained job %s not re-queued under its ID", orig.ID)
		}
		if j.TraceID != orig.TraceID {
			t.Fatalf("job %s trace %s, want the original %s", j.ID, j.TraceID, orig.TraceID)
		}
		if j.Status().Restored {
			t.Fatalf("re-queued job %s marked restored", j.ID)
		}
		waitDone(t, j)
		if st := j.State(); st != StateDone {
			t.Fatalf("resumed job %s ended %s (%s)", j.ID, st, j.Status().Error)
		}
	}
}

// A running job the drain deadline interrupts is resumable: the
// successor re-queues it under its original ID and trace.
func TestDrainDeadlineRequeuesRunningJob(t *testing.T) {
	opts := testOptions(t)
	opts.Runners = 1
	srv := New(opts) // drives Drain itself

	long := quickSpec()
	long.Accesses = 50_000 // seconds of simulation: the deadline lands mid-run
	j, _, err := srv.Submit(long, "c")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	n, err := srv.Drain(ctx)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n != 1 {
		t.Fatalf("drain left %d job(s) resumable, want 1", n)
	}
	if st := j.Status(); st.State != StateCanceled || st.Error != "drain" {
		t.Fatalf("interrupted job is %s (%q), want canceled (\"drain\")", st.State, st.Error)
	}

	srv2 := successor(t, opts)
	if n := srv2.Resume(); n != 1 {
		t.Fatalf("resume re-queued %d job(s), want 1", n)
	}
	rj, ok := srv2.Job(j.ID)
	if !ok {
		t.Fatalf("interrupted job %s not re-queued under its ID", j.ID)
	}
	if rj.TraceID != j.TraceID || rj.Status().Restored {
		t.Fatalf("re-queued job trace %s restored=%v, want trace %s, not restored",
			rj.TraceID, rj.Status().Restored, j.TraceID)
	}
	// Cancel rather than wait out the whole sweep again.
	if !srv2.Cancel(rj.ID) {
		t.Fatalf("re-queued job %s already terminal (%s)", rj.ID, rj.State())
	}
	waitDone(t, rj)
}

// DELETE /v1/jobs/{id} still works while the daemon drains. A running
// job a client cancels then is the client's decision, not drain
// leftovers: it is recorded as canceled by "client" and never re-run.
func TestClientCancelDuringDrainIsNotResumed(t *testing.T) {
	opts := testOptions(t)
	opts.Runners = 1
	srv := New(opts) // drives Drain itself

	long := quickSpec()
	long.Accesses = 30_000
	j, _, err := srv.Submit(long, "c")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, j)
	resc := drainAsync(srv)
	untilDraining(srv, long)
	if !srv.Cancel(j.ID) {
		t.Fatalf("cancel of running job %s returned false (state %s)", j.ID, j.State())
	}
	res := <-resc
	if res.err != nil {
		t.Fatalf("drain: %v", res.err)
	}
	if res.n != 0 {
		t.Fatalf("drain left %d job(s) resumable, want 0", res.n)
	}
	if st := j.Status(); st.State != StateCanceled || st.Error != "client" {
		t.Fatalf("canceled job is %s (%q), want canceled (\"client\")", st.State, st.Error)
	}

	srv2 := successor(t, opts)
	if n := srv2.Resume(); n != 0 {
		t.Fatalf("resume re-queued %d job(s), want 0", n)
	}
	jobs := srv2.Jobs()
	if len(jobs) != 1 || jobs[0].ID != j.ID {
		t.Fatalf("successor holds %d job(s), want only %s", len(jobs), j.ID)
	}
	if st := jobs[0].Status(); !st.Restored || st.State != StateCanceled {
		t.Fatalf("successor's %s is %s restored=%v, want a restored canceled job", st.ID, st.State, st.Restored)
	}
}

// With no index to hold them, or one that cannot be written, the jobs a
// drain interrupts are lost, and Drain's error says how many.
func TestDrainReportsLostJobs(t *testing.T) {
	for name, noIndex := range map[string]func(*Options){
		"no-cache-dir": func(o *Options) { o.CacheDir = "" },
		"read-only":    func(o *Options) { o.indexFS = faultfs.New(nil, faultfs.Options{ReadOnly: true}) },
	} {
		t.Run(name, func(t *testing.T) {
			opts := testOptions(t)
			noIndex(&opts)
			hold := make(chan struct{})
			opts.hold = hold
			release := closeOnce(t, hold)
			srv := New(opts) // drives Drain itself
			if _, _, err := srv.Submit(quickSpec(), "c"); err != nil {
				t.Fatal(err)
			}
			resc := drainAsync(srv)
			untilDraining(srv, quickSpec())
			release()
			res := <-resc
			if res.n != 1 || res.err == nil || !strings.Contains(res.err.Error(), "1 job(s) lost") {
				t.Fatalf("drain = %d, %v; want 1 and an error naming 1 lost job", res.n, res.err)
			}
		})
	}
}

// Regression: a cancel landing in the instant a runner claims the job
// must resolve atomically — either the queued-cancel wins (the runner
// skips the corpse) or the runner wins (the cancel goes through the
// job's context). The old two-step State()-then-mark allowed both to
// win, double-closing the done channel. Exercised under -race in CI;
// every job must end with exactly one terminal event, stream-last.
func TestCancelRacesRunnerStart(t *testing.T) {
	opts := testOptions(t)
	opts.Runners = 4
	opts.Queue = 64
	srv := newTestServer(t, opts)

	const jobs = 16
	for i := 0; i < jobs; i++ {
		sp := quickSpec()
		sp.Seed = uint64(i + 1) // distinct fingerprints: no coalescing
		j, _, err := srv.Submit(sp, "c")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Cancel(j.ID) // races the runner's dequeue + markStarted
	}
	terminal := map[events.Type]bool{
		events.ServeJobFinished: true,
		events.ServeJobFailed:   true,
		events.ServeJobCanceled: true,
	}
	for _, j := range srv.Jobs() {
		waitDone(t, j)
		if st := j.State(); !st.Terminal() {
			t.Fatalf("job %s not terminal: %s", j.ID, st)
		}
		replay, _ := j.Bus.Since(0, nil)
		n := 0
		for _, e := range replay {
			if terminal[e.Type] {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("job %s emitted %d terminal events: %+v", j.ID, n, replay)
		}
		if last := replay[len(replay)-1].Type; !terminal[last] {
			t.Fatalf("job %s stream ends with %s, want its terminal event", j.ID, last)
		}
	}
}

// Drain owns the queue-depth decrement for every job it pops — including
// a corpse a client canceled while queued (the runner that normally owns
// the -1 never dequeues it), so the gauge returns to zero.
func TestDrainAccountsCanceledQueuedJobs(t *testing.T) {
	opts := testOptions(t)
	hold := make(chan struct{})
	opts.hold = hold
	release := closeOnce(t, hold)
	srv := New(opts) // drives Drain itself

	a := quickSpec()
	b := quickSpec()
	b.Seed = 2
	ja, _, err := srv.Submit(a, "c")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.Submit(b, "c"); err != nil {
		t.Fatal(err)
	}
	if !srv.Cancel(ja.ID) { // finalized but still in the queue channel
		t.Fatal("cancel of queued job failed")
	}

	resc := make(chan int, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		n, err := srv.Drain(ctx)
		if err != nil {
			t.Errorf("drain: %v", err)
		}
		resc <- n
	}()
	// Probe with b's spec: until draining it coalesces onto the queued
	// jb (no new queue entries); ErrDraining means the queue is emptied
	// and closed. a's spec would enqueue fresh jobs — ja's fingerprint
	// was freed by the cancel.
	for {
		if _, _, err := srv.Submit(b, "late"); errors.Is(err, ErrDraining) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	release()
	if n := <-resc; n != 1 {
		t.Fatalf("drain left %d job(s) resumable, want 1 (the corpse is not resumable)", n)
	}
	if got, _ := opts.Metrics.Snapshot().Lookup(telemetry.MetricServeQueueDepth); got != 0 {
		t.Fatalf("%s = %v after drain, want 0", telemetry.MetricServeQueueDepth, got)
	}
}

// Rejections that did no work must not drain the client's token bucket:
// invalid and oversized specs are rejected before the quota gate, and a
// queue-full rejection refunds the token it took.
func TestQuotaNotSpentByRejectedSubmissions(t *testing.T) {
	opts := testOptions(t)
	opts.Rate = 0.001 // no meaningful refill within the test
	opts.Burst = 2
	opts.Queue = 1
	opts.MaxAccesses = 1000
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	closeOnce(t, hold)

	bad := quickSpec()
	bad.Accesses = -1
	big := quickSpec()
	big.Accesses = 5000
	for i := 0; i < 5; i++ {
		if _, _, err := srv.Submit(bad, "alice"); err == nil {
			t.Fatal("invalid spec admitted")
		}
		if _, _, err := srv.Submit(big, "alice"); err == nil {
			t.Fatal("oversized spec admitted")
		}
	}
	// Both tokens survive the rejections: one admits, and the queue-full
	// rejection refunds, so retries keep hitting 429-queue, never quota.
	if _, _, err := srv.Submit(quickSpec(), "alice"); err != nil {
		t.Fatalf("first real submit: %v", err)
	}
	overflow := quickSpec()
	overflow.Seed = 2
	for i := 0; i < 5; i++ {
		if _, _, err := srv.Submit(overflow, "alice"); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow submit %d: %v, want ErrQueueFull", i, err)
		}
	}
	if got, _ := srv.opts.Metrics.Snapshot().Lookup(telemetry.MetricServeRejectedQuota); got != 0 {
		t.Fatalf("%s = %v, want 0 (no rejection should have spent quota)", telemetry.MetricServeRejectedQuota, got)
	}
}

// A canceled queued job must not leave its fingerprint claimed: the next
// identical submission gets a fresh job, not a corpse.
func TestResubmitAfterQueuedCancel(t *testing.T) {
	opts := testOptions(t)
	hold := make(chan struct{})
	opts.hold = hold
	srv := newTestServer(t, opts)
	release := closeOnce(t, hold)

	j1, _, err := srv.Submit(quickSpec(), "c")
	if err != nil {
		t.Fatal(err)
	}
	if !srv.Cancel(j1.ID) {
		t.Fatal("cancel failed")
	}
	j2, deduped, err := srv.Submit(quickSpec(), "c")
	if err != nil {
		t.Fatal(err)
	}
	if deduped || j2 == j1 {
		t.Fatalf("resubmission coalesced onto a canceled job")
	}
	release()
	waitDone(t, j2)
	if st := j2.State(); st != StateDone {
		t.Fatalf("fresh job ended %s", st)
	}
}
