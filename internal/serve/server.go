package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/log"
	"racetrack/hifi/internal/telemetry/slo"
	"racetrack/hifi/internal/telemetry/tracectx"
)

// Options configures a Server.
type Options struct {
	// Workers is the engine worker-pool width each job runs with
	// (<= 0 means runtime.NumCPU via the engine default).
	Workers int
	// CacheDir roots the shared content-addressed result cache — the
	// cross-client dedup substrate — and the crash-safe job index
	// (serve.index.ndjson, index.go). Empty disables both: every job
	// recomputes, job state is in memory only, and a drain loses the
	// jobs it interrupts. That defeats the daemon's main value; the CLI
	// defaults it on.
	CacheDir string
	// Version overrides the cache code-version ("" = engine.CodeVersion).
	Version string
	// CacheMaxBytes arms the shared cache's size budget: once the
	// bucket files exceed it, the least-recently-accessed buckets are
	// evicted (engine/evict.go). 0 = unlimited — fine for a sweep,
	// unwise for a daemon that lives for weeks.
	CacheMaxBytes int64
	// Runners bounds concurrently running jobs (<= 0 means 2). Each job
	// gets its own engine, so total sim parallelism is Runners×Workers.
	Runners int
	// Queue bounds jobs accepted but not yet running (<= 0 means 16).
	// A full queue rejects submissions with 429 + Retry-After.
	Queue int
	// Rate and Burst shape the per-client token bucket (submissions per
	// second and bucket size). Rate <= 0 disables quotas.
	Rate  float64
	Burst int
	// RequireToken rejects submissions that carry no client token
	// (Authorization: Bearer or X-API-Key) instead of falling back to
	// the remote address as the quota key.
	RequireToken bool
	// MaxAccesses caps Spec.Accesses at admission (0 = unbounded), so a
	// public daemon can refuse arbitrarily large sweeps outright.
	MaxAccesses int
	// RingCap is the most events each job bus's SSE replay ring holds
	// (0 = events default); a ring grows to it only as its job emits.
	// Tests shrink it to force replay gaps.
	RingCap int
	// Metrics receives the hifi_serve_* admission/lifecycle series and
	// every job's engine/sim series. Nil disables instrumentation.
	Metrics *telemetry.Registry
	// Events is the daemon-wide bus narrating all tenants' lifecycle
	// (the /events route). Nil means the server creates its own.
	Events *events.Bus
	// AccessLog receives one hifi_access_v1 NDJSON line per HTTP
	// request (after a schema header line). Nil disables the access
	// log; cmd/hifi-serve defaults it to stderr.
	AccessLog io.Writer
	// TraceSeed seeds the trace/span ID generator. 0 (the production
	// default) draws unpredictable IDs from crypto/rand; a fixed seed
	// makes the daemon's minted trace IDs reproducible for tests and
	// replayable incident drills.
	TraceSeed uint64

	// hold gates each runner before it dequeues a job (one receive per
	// job; closing it releases the runners for good). In-package tests
	// use it to freeze jobs in a known state; it is unexported so
	// production callers cannot.
	hold chan struct{}
	// indexFS interposes the job index's filesystem (faultfs chaos
	// tests); nil means the real filesystem. Unexported: production
	// always writes through engine.OS().
	indexFS engine.FS
	// indexCompactEvery overrides the compaction cadence (appended
	// records between compactions); <= 0 means the default. Tests
	// shrink it to force compactions.
	indexCompactEvery int
}

// Submission errors the API layer maps to status codes.
var (
	// ErrDraining rejects submissions after Drain started (503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
	// ErrQueueFull rejects submissions when the bounded queue is at
	// capacity (429 + Retry-After).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrTokenRequired rejects anonymous submissions under
	// RequireToken (401).
	ErrTokenRequired = errors.New("serve: client token required (Authorization: Bearer or X-API-Key)")
)

// Cancel causes of a running job's context. The cause, not the error the
// engine unwinds with, tells a client's cancel from a drain deadline.
var (
	errClientCancel  = errors.New("serve: canceled by client")
	errDrainDeadline = errors.New("serve: drain deadline")
)

// QuotaError rejects a submission that exhausted its client's token
// bucket (429); RetryAfter is when the next token lands.
type QuotaError struct{ RetryAfter time.Duration }

func (e *QuotaError) Error() string {
	return fmt.Sprintf("serve: client quota exhausted; retry in %s", e.RetryAfter)
}

// Server is the sweep daemon: a bounded job queue, a fixed pool of job
// runners, the shared result cache, and the job table the API reads.
type Server struct {
	opts   Options
	cache  *engine.Cache
	bus    *events.Bus // daemon-wide lifecycle stream
	health *telemetry.HealthState
	quota  *quotas
	tel    serveTelemetry

	// Request-correlation and SLO plane (middleware.go, slo.go).
	tgen      *tracectx.Gen
	httpTel   *httpTelemetry
	accessLog *accessLog
	slo       *slo.Set

	// Durability plane (index.go): the crash-safe job-index WAL, the
	// jobs replayed from it (held until Resume applies them), and the
	// jobs a drain left for -resume, which compaction records as queued.
	index     *jobIndex
	recovered []restoredJob
	requeue   map[string]bool

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job // by ID
	order    []string        // IDs in acceptance order
	active   map[string]*Job // fingerprint → queued/running job
	nextID   int
	running  int

	// hold, when non-nil, gates each runner before it executes a job:
	// the runner receives one token per job. Tests use it to freeze
	// jobs in a known state; production never sets it.
	hold chan struct{}
}

type serveTelemetry struct {
	submitted  *telemetry.Counter
	deduped    *telemetry.Counter
	rejQueue   *telemetry.Counter
	rejQuota   *telemetry.Counter
	completed  *telemetry.Counter
	failed     *telemetry.Counter
	canceled   *telemetry.Counter
	queueDepth *telemetry.Gauge
	running    *telemetry.Gauge
}

// New builds and starts a server: the runner pool is live on return.
// An unusable cache directory degrades to cache-less operation with a
// warning, mirroring the CLI engine flags.
func New(opts Options) *Server {
	if opts.Runners <= 0 {
		opts.Runners = 2
	}
	if opts.Queue <= 0 {
		opts.Queue = 16
	}
	s := &Server{
		opts:   opts,
		bus:    opts.Events,
		health: telemetry.NewHealthState(),
		quota:  newQuotas(opts.Rate, opts.Burst),
		queue:  make(chan *Job, opts.Queue),
		jobs:   map[string]*Job{},
		active: map[string]*Job{},
		hold:   opts.hold,
	}
	if s.bus == nil {
		s.bus = events.New(0)
	}
	if opts.CacheDir != "" {
		cache, err := engine.OpenCache(opts.CacheDir, opts.Version)
		if err != nil {
			log.Errorf("serve: %v; continuing without cache (no cross-client result reuse)", err)
		} else {
			s.cache = cache
			cache.Instrument(opts.Metrics)
			if opts.CacheMaxBytes > 0 {
				cache.SetMaxBytes(opts.CacheMaxBytes)
			}
		}
	}
	reg := opts.Metrics
	s.tel = serveTelemetry{
		submitted:  reg.Counter(telemetry.MetricServeSubmitted, "sweep specs accepted (including deduped)"),
		deduped:    reg.Counter(telemetry.MetricServeDeduped, "submissions coalesced onto a live identical job"),
		rejQueue:   reg.Counter(telemetry.MetricServeRejectedQueue, "submissions rejected because the job queue was full"),
		rejQuota:   reg.Counter(telemetry.MetricServeRejectedQuota, "submissions rejected by a client quota"),
		completed:  reg.Counter(telemetry.MetricServeCompleted, "jobs that completed successfully"),
		failed:     reg.Counter(telemetry.MetricServeFailed, "jobs that failed"),
		canceled:   reg.Counter(telemetry.MetricServeCanceled, "jobs canceled by a client or a drain"),
		queueDepth: reg.Gauge(telemetry.MetricServeQueueDepth, "jobs accepted but not yet running"),
		running:    reg.Gauge(telemetry.MetricServeRunning, "jobs currently running"),
	}
	s.tgen = tracectx.NewGen(opts.TraceSeed)
	s.httpTel = newHTTPTelemetry(opts.Metrics)
	s.accessLog = newAccessLog(opts.AccessLog)
	s.slo = slo.New(opts.Metrics, defaultObjectives(), nil)
	if path := s.indexPath(); path != "" {
		ix, recovered := openIndex(path, opts.indexFS, opts.indexCompactEvery,
			newIndexTelemetry(opts.Metrics),
			func(ok bool) { s.slo.Observe(sloIndexDurability, ok) })
		s.index = ix
		s.recovered = recovered
		// Mint above every recovered ID so new and recovered jobs never
		// collide in the table or the WAL — even when the operator skips
		// -resume and the recovered jobs stay on disk only.
		s.nextID = maxRecoveredID(recovered)
	}
	s.baseCtx, s.baseCancel = context.WithCancelCause(context.Background())
	s.health.SetDegraded(func() []string {
		var d []string
		if s.opts.CacheDir != "" && s.cache == nil {
			d = append(d, "result-cache")
		}
		if s.index.Degraded() {
			d = append(d, "job-index")
		}
		return d
	})
	s.health.SetEventsSeq(s.bus.Seq)
	s.health.SetInFlight(func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.running
	})
	for i := 0; i < opts.Runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// Cache exposes the shared result cache (nil when disabled).
func (s *Server) Cache() *engine.Cache { return s.cache }

// Bus exposes the daemon-wide event bus.
func (s *Server) Bus() *events.Bus { return s.bus }

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every job in acceptance order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Submit validates and admits one spec for client (the quota key) under
// a freshly minted trace. The HTTP path goes through SubmitTraced with
// the request's trace context instead.
func (s *Server) Submit(spec Spec, client string) (*Job, bool, error) {
	return s.SubmitTraced(spec, client, tracectx.Context{})
}

// SubmitTraced validates and admits one spec for client (the quota
// key), correlating the job and every event it emits with tc (an
// invalid tc mints a fresh trace). Returns the job — possibly an
// existing live one the submission coalesced onto (deduped true) — or a
// typed admission error.
func (s *Server) SubmitTraced(spec Spec, client string, tc tracectx.Context) (*Job, bool, error) {
	if !tc.Valid() {
		tc = s.tgen.NewContext()
	}
	trace := tc.TraceID.String()
	if s.opts.RequireToken && client == "" {
		return nil, false, ErrTokenRequired
	}
	// Validate before spending quota: a malformed or oversized spec is a
	// client error that did no work, and must not drain the bucket.
	norm, err := spec.Normalize()
	if err != nil {
		return nil, false, err
	}
	if s.opts.MaxAccesses > 0 && norm.Accesses > s.opts.MaxAccesses {
		return nil, false, fmt.Errorf("serve: accesses %d exceeds this server's limit of %d",
			norm.Accesses, s.opts.MaxAccesses)
	}
	if ok, retry := s.quota.allow(client, time.Now()); !ok {
		s.tel.rejQuota.Add(1)
		s.bus.Emit(events.Event{Type: events.ServeJobRejected, Name: client, Detail: "quota", TraceID: trace})
		return nil, false, &QuotaError{RetryAfter: retry}
	}
	j, deduped, err := s.admit(norm, tc)
	if err != nil {
		// Queue-full / draining rejections did no work either: return
		// the token so the rejection itself cannot throttle the client.
		s.quota.refund(client)
	}
	return j, deduped, err
}

// admit enqueues a normalized spec: the dedup check and the bounded
// queue, under one lock so a drain can never race a send onto a closed
// queue. tc must be valid (SubmitTraced mints one); the job and its
// whole event stream inherit its trace ID.
func (s *Server) admit(norm Spec, tc tracectx.Context) (*Job, bool, error) {
	trace := tc.TraceID.String()
	fp := norm.Fingerprint()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.bus.Emit(events.Event{Type: events.ServeJobRejected, Detail: "draining", TraceID: trace})
		return nil, false, ErrDraining
	}
	// coalesce emits the job-bus deduped event itself, under j.mu, so it
	// can never land after the stream's terminal event; only the
	// daemon-bus copy is emitted here. The deduped daemon event carries
	// the REJECTED submission's trace ID — the job keeps the trace of
	// the submission that created it — so the coalesced client's trace
	// still has a daemon-log footprint pointing at the live job.
	if live := s.active[fp]; live != nil && live.coalesce() {
		s.mu.Unlock()
		s.tel.submitted.Add(1)
		s.tel.deduped.Add(1)
		s.bus.Emit(events.Event{Type: events.ServeJobDeduped, Name: live.ID, Detail: fp, TraceID: trace})
		return live, true, nil
	}
	s.nextID++
	id := fmt.Sprintf("j%04d", s.nextID)
	j := newJob(id, fp, norm, s.baseCtx, s.opts.RingCap, tc)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.tel.rejQueue.Add(1)
		s.bus.Emit(events.Event{Type: events.ServeJobRejected, Detail: "queue", TraceID: trace})
		return nil, false, ErrQueueFull
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.active[fp] = j
	s.mu.Unlock()

	s.tel.submitted.Add(1)
	s.tel.queueDepth.Add(1)
	s.bus.Emit(events.Event{Type: events.ServeJobAccepted, Name: id, Detail: fp, TraceID: trace})
	j.Bus.Emit(events.Event{Type: events.ServeJobAccepted, Name: id, Detail: fp})
	s.index.append(indexRecord{
		Op: opAdmitted, ID: id, Fingerprint: fp, TraceID: trace,
		Spec: &norm, TMS: j.created.UnixMilli(),
	})
	return j, false, nil
}

// Cancel requests cancellation of a job: a queued job is finalized
// immediately, a running one has its context canceled and finalizes
// when the engine unwinds. Returns false when the job is already
// terminal.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	// markCanceledIfQueued is atomic with the queued→running transition
	// (both hold j.mu), so a job a runner has already claimed can only
	// be canceled through its context — never by a state overwrite that
	// would race the runner's own terminal transition.
	if j.markCanceledIfQueued("client") {
		// The job is still in the queue channel; the runner that
		// eventually dequeues it sees the terminal state and skips it
		// (and owns the queue-depth decrement).
		s.finalize(j, events.Event{Type: events.ServeJobCanceled, Name: j.ID, Detail: "client"}, s.tel.canceled)
		return true
	}
	if j.State() == StateRunning {
		j.cancel(errClientCancel)
		return true
	}
	return false
}

// runner is one job-execution loop; Drain stops it by closing the
// queue.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		if s.hold != nil {
			// The gate precedes the dequeue so a held runner leaves jobs
			// observable in the queue (deterministic queue-full tests).
			// Tests close the channel to release the runner for good.
			<-s.hold
		}
		j, ok := <-s.queue
		if !ok {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job: its own engine over the shared cache, the
// experiments in spec order, and exactly one terminal event on the job
// bus.
func (s *Server) runJob(j *Job) {
	s.tel.queueDepth.Add(-1)
	if j.State() != StateQueued {
		// Canceled while queued; already finalized.
		return
	}
	eng := s.newEngine(j.Bus)
	if !j.markStarted(eng) {
		return
	}
	s.setRunning(+1)
	start := time.Now()
	s.bus.Emit(events.Event{Type: events.ServeJobStarted, Name: j.ID, Detail: j.Fingerprint, TraceID: j.TraceID})
	j.Bus.Emit(events.Event{Type: events.ServeJobStarted, Name: j.ID})
	s.index.append(indexRecord{Op: opStarted, ID: j.ID, TMS: start.UnixMilli()})

	tables, err := s.sweep(j.ctx, j.Spec, eng, j.Bus)
	st := eng.Status()
	wall := time.Since(start).Milliseconds()
	s.setRunning(-1)
	// Each mark* reports whether this goroutine won the terminal
	// transition; only the winner finalizes, so the job's done channel
	// is closed exactly once and exactly one terminal event is emitted.
	switch {
	case err == nil:
		if j.markDone(st, tables) {
			s.finalize(j, events.Event{
				Type: events.ServeJobFinished, Name: j.ID,
				MS: wall, N: int64(len(j.Spec.Run)),
			}, s.tel.completed)
		}
	case j.ctx.Err() != nil:
		reason := cancelReason(j.ctx)
		if j.markCanceled(&st, reason) {
			s.finalize(j, events.Event{
				Type: events.ServeJobCanceled, Name: j.ID, Detail: reason, MS: wall,
			}, s.tel.canceled)
		}
	default:
		if j.markFailed(st, err.Error()) {
			s.finalize(j, events.Event{
				Type: events.ServeJobFailed, Name: j.ID, Detail: err.Error(), MS: wall,
			}, s.tel.failed)
		}
	}
}

// finalize retires a job from the dedup table, emits its terminal
// event on both buses — on the job bus it is by contract the last
// event of the stream — and only then closes the job's done channel,
// so a job's SSE stream, which ends at Done(), ends with that event.
// Called exactly once per job, by whichever goroutine won the terminal
// mark* transition.
func (s *Server) finalize(j *Job, terminal events.Event, ctr *telemetry.Counter) {
	s.mu.Lock()
	if s.active[j.Fingerprint] == j {
		delete(s.active, j.Fingerprint)
	}
	s.mu.Unlock()
	terminal.TraceID = j.TraceID
	ctr.Add(1)
	s.bus.Emit(terminal)
	j.Bus.Emit(terminal)
	j.finish()
	// The WAL records the terminal transition after the event is on the
	// buses; a crash in between replays as "still running" and the job
	// re-runs — at-least-once, which the content-addressed cache makes
	// idempotent.
	st := j.Status()
	s.index.append(indexRecord{
		Op: string(st.State), ID: j.ID, Detail: st.Error, TMS: st.FinishedTMS,
	})
	s.maybeCompactIndex()
	// Job-completion SLO: a finished job is good when its wall time met
	// the threshold, a failed job is bad, and a cancellation — client's
	// choice or a drain — is nobody's breach and is not observed.
	switch terminal.Type {
	case events.ServeJobFinished:
		s.slo.ObserveLatency(sloJobCompletion, terminal.MS)
	case events.ServeJobFailed:
		s.slo.Observe(sloJobCompletion, false)
	}
}

// cancelReason names who canceled a running job: "drain" when the drain
// deadline interrupted it, "client" otherwise.
func cancelReason(ctx context.Context) string {
	if errors.Is(context.Cause(ctx), errDrainDeadline) {
		return "drain"
	}
	return "client"
}

func (s *Server) setRunning(delta int) {
	s.mu.Lock()
	s.running += delta
	s.mu.Unlock()
	s.tel.running.Add(float64(delta))
}

// indexPath is where the crash-safe job index lives ("" without a cache
// dir: no index).
func (s *Server) indexPath() string {
	if s.opts.CacheDir == "" {
		return ""
	}
	return filepath.Join(s.opts.CacheDir, "serve.index.ndjson")
}

// maybeCompactIndex compacts the WAL once enough records accumulated.
func (s *Server) maybeCompactIndex() {
	if s.index.shouldCompact() {
		s.compactIndex()
	}
}

// compactIndex rewrites the WAL as one snapshot record per known job.
// The gather callback runs under the index lock; every transition takes
// the job's mutex before its record is appended (which would block on
// that same index lock), so the snapshot always reflects at least
// every state whose record made it to the WAL — compaction can
// duplicate a transition, never lose one. Returns the error that kept
// the rewrite off disk.
func (s *Server) compactIndex() error {
	return s.index.compactWith(func() []indexRecord {
		s.mu.Lock()
		recovered, requeue := s.recovered, s.requeue
		s.mu.Unlock()
		var recs []indexRecord
		seen := map[string]bool{}
		for _, j := range s.Jobs() {
			rec := j.indexSnapshot()
			if requeue[j.ID] {
				// A drain canceled it, but it is resumable work: record
				// the queued state its requeued record replays to.
				rec.State, rec.Detail, rec.StartedTMS, rec.FinishedTMS = StateQueued, "", 0, 0
			}
			recs = append(recs, rec)
			seen[j.ID] = true
		}
		// Jobs replayed but not yet applied by Resume (or never applied,
		// when the operator skipped -resume) must survive the rewrite.
		for _, r := range recovered {
			if seen[r.id] {
				continue
			}
			spec := r.spec
			recs = append(recs, indexRecord{
				Op: opSnapshot, ID: r.id, Fingerprint: r.fingerprint, TraceID: r.trace,
				Spec: &spec, State: r.state, Detail: r.detail,
				CreatedTMS: r.createdTMS, StartedTMS: r.startedTMS, FinishedTMS: r.finishedTMS,
			})
		}
		sort.Slice(recs, func(i, j int) bool { return jobIDNum(recs[i].ID) < jobIDNum(recs[j].ID) })
		return recs
	})
}

// tablesFor returns a job's tables, re-materializing a restored
// completed job's results through the shared cache first. The sweep
// already ran to completion once, so the engine resolves every job from
// the content-addressed store and the job's ledger shows executed=0 —
// unless eviction or corruption removed records, in which case they are
// recomputed (slower, still byte-identical).
func (s *Server) tablesFor(j *Job) (map[string]experiments.Table, []string, error) {
	if j.needsMaterialize() {
		if err := s.materialize(j); err != nil {
			return nil, nil, err
		}
	}
	tables, runs := j.Tables()
	return tables, runs, nil
}

// materialize re-runs a restored job's spec through the shared cache
// and attaches the tables, text, and engine ledger to the job.
// Single-flight per job via rematMu; concurrent requests for the same
// restored job wait for the first materialization.
func (s *Server) materialize(j *Job) error {
	j.rematMu.Lock()
	defer j.rematMu.Unlock()
	if !j.needsMaterialize() {
		return nil
	}
	eng := s.newEngine(nil)
	tables, err := s.sweep(s.baseCtx, j.Spec, eng, nil)
	if err != nil {
		return fmt.Errorf("serve: re-materialize %s: %w", j.ID, err)
	}
	j.setMaterialized(eng.Status(), tables)
	return nil
}

// newEngine builds a job's own engine over the shared cache; its events
// go to bus (nil when re-materializing).
func (s *Server) newEngine(bus *events.Bus) *engine.Engine {
	return engine.New(engine.Options{
		Workers: s.opts.Workers,
		Cache:   s.cache,
		Metrics: s.opts.Metrics,
		Events:  bus,
	})
}

// sweep runs spec on eng through experiments.Sweep, the loop the CLIs
// run. bus (nil when re-materializing) gets a run.phase event per
// experiment and the simulations' events.
func (s *Server) sweep(ctx context.Context, spec Spec, eng *engine.Engine, bus *events.Bus) (map[string]experiments.Table, error) {
	opts, err := spec.RunOpts()
	if err != nil {
		return nil, err
	}
	opts.Metrics, opts.Events, opts.Eng = s.opts.Metrics, bus, eng
	return experiments.Sweep(ctx, spec.Run, opts, func(_ int, k string) {
		bus.Emit(events.Event{Type: events.RunPhase, Name: k})
	}, nil)
}

// Drain is the graceful-shutdown protocol: stop admitting, cancel every
// job still queued, let running jobs finish, and — if ctx expires first
// — cancel them and wait for the unwind. Each queued job it cancels and
// each running job its deadline interrupts is resumable work: Drain
// leaves it queued in the job index, so a -resume successor re-runs it
// under its original ID and trace, exactly as after a crash. A running
// job a client cancels meanwhile stays canceled. Returns how many jobs
// it left for -resume, and an error naming them when there is no index
// to hold them or the index could not be written.
func (s *Server) Drain(ctx context.Context) (int, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return 0, nil
	}
	s.draining = true
	var leftovers []*Job
drain:
	for {
		select {
		case j := <-s.queue:
			leftovers = append(leftovers, j)
		default:
			break drain
		}
	}
	close(s.queue)
	// Snapshot what is running right now: the deadline may interrupt
	// any of these.
	var runningAtDrain []*Job
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && j.State() == StateRunning {
			runningAtDrain = append(runningAtDrain, j)
		}
	}
	s.mu.Unlock()

	var resumable []*Job
	for _, j := range leftovers {
		// Drain popped these from the queue, so the runner's usual -1
		// never happens; Drain owns the decrement for every popped job,
		// including ones a client already canceled while queued.
		s.tel.queueDepth.Add(-1)
		if j.markCanceledIfQueued("drain") {
			resumable = append(resumable, j)
			s.finalize(j, events.Event{Type: events.ServeJobCanceled, Name: j.ID, Detail: "drain"}, s.tel.canceled)
		}
	}

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		// Deadline: abort in-flight jobs and wait for the unwind — the
		// engine honors cancellation, so this is bounded.
		s.baseCancel(fmt.Errorf("%w: %w", errDrainDeadline, context.Cause(ctx)))
		<-finished
	}

	// Now the runners are quiet: a running-at-drain job that ended
	// canceled by the deadline, not by a client, is resumable too.
	for _, j := range runningAtDrain {
		if j.State() == StateCanceled && cancelReason(j.ctx) == "drain" {
			resumable = append(resumable, j)
		}
	}
	// Record each resumable job as requeued, then compact: the rewrite
	// snapshots them as queued and leaves a tidy index — one record per
	// job — for the next boot.
	requeue := make(map[string]bool, len(resumable))
	now := time.Now().UnixMilli()
	for _, j := range resumable {
		requeue[j.ID] = true
		s.index.append(indexRecord{Op: opRequeued, ID: j.ID, TMS: now})
	}
	s.mu.Lock()
	s.requeue = requeue
	s.mu.Unlock()
	err := s.compactIndex()
	n := len(resumable)
	switch {
	case n == 0:
		return 0, nil
	case s.index == nil:
		return n, fmt.Errorf("serve: drain: %d job(s) lost: no job index (set -cache-dir)", n)
	case err != nil && s.index.Degraded():
		return n, fmt.Errorf("serve: drain: %d job(s) lost: job index unwritable: %w", n, err)
	}
	return n, nil
}

// Resume installs the jobs the index replay found; call it before
// serving traffic. Terminal jobs become restored entries in the job
// table — queryable across the restart, results lazily re-materialized
// from the shared cache. Jobs the index last saw queued or running — a
// crash or a drain interrupted them — are re-queued under their
// ORIGINAL IDs and traces, so a client polling a pre-restart job handle
// watches it run again rather than getting a 404. Returns how many jobs
// were re-queued.
func (s *Server) Resume() int {
	s.mu.Lock()
	recovered := s.recovered
	s.recovered = nil
	if len(recovered) == 0 || s.draining {
		s.mu.Unlock()
		return 0
	}
	restored, requeued := 0, 0
	var queued []*Job
	for _, r := range recovered {
		if _, exists := s.jobs[r.id]; exists {
			continue
		}
		// Keep the job's original trace so pre-crash and post-crash
		// telemetry correlate; a record without one mints a fresh trace.
		tc := s.tgen.NewContext()
		if tid, err := tracectx.ParseTraceID(r.trace); err == nil {
			tc.TraceID = tid
		}
		if State(r.state).Terminal() {
			j := newRestoredJob(r, s.opts.RingCap, tc)
			s.jobs[j.ID] = j
			s.order = append(s.order, j.ID)
			restored++
			continue
		}
		// Queued or running when the process stopped: re-run. The
		// content-addressed cache makes the replay idempotent — finished
		// experiments of a half-done sweep are served from disk, not
		// recomputed.
		j := newJob(r.id, r.fingerprint, r.spec, s.baseCtx, s.opts.RingCap, tc)
		select {
		case s.queue <- j:
		default:
			log.Errorf("serve: resume: queue full, dropping recovered job %s (spec stays in the index)", r.id)
			// Put it back so compaction keeps its record and a later
			// restart can try again.
			s.recovered = append(s.recovered, r)
			continue
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		if s.active[j.Fingerprint] == nil {
			s.active[j.Fingerprint] = j
		}
		queued = append(queued, j)
		requeued++
	}
	s.mu.Unlock()

	for _, j := range queued {
		s.tel.queueDepth.Add(1)
		s.bus.Emit(events.Event{Type: events.ServeJobRecovered, Name: j.ID, Detail: "requeued", TraceID: j.TraceID})
		j.Bus.Emit(events.Event{Type: events.ServeJobRecovered, Name: j.ID, Detail: "requeued"})
		s.index.append(indexRecord{Op: opRequeued, ID: j.ID, TMS: time.Now().UnixMilli()})
	}
	if restored > 0 || requeued > 0 {
		log.Infof("serve: recovered %d job(s) from the index (%d restored, %d re-queued)",
			restored+requeued, restored, requeued)
		s.bus.Emit(events.Event{Type: events.ServeJobRecovered, Detail: "restored", N: int64(restored)})
		// One snapshot per job leaves the WAL tidy for the next boot.
		s.compactIndex()
	}
	return requeued
}
