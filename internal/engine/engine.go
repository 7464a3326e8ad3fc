// Package engine is the parallel experiment engine: it turns a sweep of
// independent deterministic jobs — one per (experiment, config, seed)
// tuple — into a fault-tolerant schedule over a bounded worker pool.
//
// The two pillars, each optional and composable:
//
//   - A worker pool (default runtime.NumCPU()) executes each job once,
//     with per-job panic isolation: a job that errors or panics fails
//     its batch with an error naming it, instead of taking the process
//     down. Jobs are deterministic in their Key, so a second execution
//     would fail the same way; rerunning the sweep over the cache
//     executes only the jobs that never finished.
//   - A content-addressed on-disk cache (Cache) keyed by a canonical
//     hash of the resolved job inputs plus the code version, so
//     re-running a sweep only executes jobs whose inputs changed. The
//     cache is a sweep's only record: rerunning an interrupted sweep
//     over the same cache finishes it.
//
// Determinism is the core contract: job functions must be pure in their
// Key, and every result — fresh or cached — is canonicalized through the
// same JSON encoding, so a sweep run with 8 workers, 1 worker, or a warm
// cache renders byte-identical tables. See docs/engine.md.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/log"
)

// Job is one unit of sweep work. Fn must be deterministic with respect
// to Key: the Key is the canonical identity of every input that affects
// the result (use KeyJSON to build it), and the cache assumes equal keys
// mean equal results.
type Job struct {
	// Key canonically identifies the job's resolved inputs. It is hashed
	// together with the code version into the content-addressed cache key.
	Key string
	// Label is the short human name used for spans, logs, and the
	// /engine status route; Key is used when empty.
	Label string
	// Fn computes the result. The returned value must marshal to JSON;
	// the engine canonicalizes every result (fresh or cached) through
	// that encoding. Panics are recovered and treated as job errors.
	Fn func(ctx context.Context) (any, error)
}

// SubSeed deterministically derives a per-job seed from the sweep's base
// seed and a stable name (a workload, a config label). Jobs that must
// share a random stream — e.g. scheme comparisons over one trace —
// should derive from the shared part of their identity only.
func SubSeed(base uint64, name string) uint64 {
	// FNV-1a over the name, then a splitmix64 finalizer mixing in base,
	// so adjacent base seeds yield unrelated streams.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	z := h + base*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // seed 0 means "use default" to several configs; avoid it
	}
	return z
}

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent job execution; <= 0 means
	// runtime.NumCPU().
	Workers int
	// Cache enables content-addressed result reuse; nil disables it.
	Cache *Cache
	// Metrics optionally receives the engine counters and pool gauges
	// named in telemetry/names.go. Nil disables instrumentation.
	Metrics *telemetry.Registry
	// Events optionally receives the job lifecycle as structured events
	// (job.queued/started/finished/cache_hit/panic/failed; see
	// docs/events.md). Nil disables emission at zero cost.
	Events *events.Bus
}

// Engine schedules jobs over a worker pool. One engine is typically
// shared by every batch of a sweep, so its counters accumulate
// sweep-wide totals (the numbers the final summary and the /engine
// route report).
type Engine struct {
	opts Options

	// Lifetime totals, atomics so Status() can read mid-run.
	total    atomic.Uint64
	executed atomic.Uint64
	hits     atomic.Uint64
	failures atomic.Uint64
	corrupt  atomic.Uint64

	queued  atomic.Int64
	running atomic.Int64

	// Per-job resource totals (see jobResources): what the executed jobs
	// of this engine's lifetime cost in wall, CPU, allocation, and GC
	// work. Read through Resources().
	jobWallMS  atomic.Int64
	jobCPUMS   atomic.Int64
	allocBytes atomic.Uint64
	mallocs    atomic.Uint64
	gcCycles   atomic.Uint64

	putWarned atomic.Bool // cache writes failing: warn once, degrade

	mu           sync.Mutex
	inFlite      map[int]runningJob // worker slot -> job
	maxJobWallMS int64
	maxJobLabel  string
	// memo holds every result this engine resolved, by job key, when it
	// has a cache: a repeat within its lifetime (one sweep) is served
	// from memory, without hashing its key or reading the cache. The
	// results it read back are also in the cache's shared memo
	// (Cache.share), which serves them to later engines over that cache.
	memo map[string]*memoEntry

	tel engineTelemetry
}

// jobResources is the measured cost of one executed job: its wall time
// plus the process-wide CPU, allocation, and GC deltas over its
// execution. With one worker the deltas are exact. Under parallel
// workers each job's deltas include the work of the jobs running beside
// it, so per-job numbers are attributions, not isolations, and the
// sweep-wide totals count the work of overlapping jobs more than once.
type jobResources struct {
	WallMS     int64
	CPUMS      int64
	AllocBytes uint64
	Mallocs    uint64
	GCCycles   uint64
}

// usageSamples name the runtime/metrics counters a job's allocation and
// GC deltas are read from: MemStats.TotalAlloc, MemStats.Mallocs (the
// heap objects plus the tiny ones, which the first objects counter
// leaves out) and MemStats.NumGC. Reading them takes a runtime lock;
// runtime.ReadMemStats would stop the world, twice a job.
var usageSamples = [...]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// usage is one reading of the process-wide counters behind jobResources.
type usage struct {
	cpuSeconds                    float64
	allocBytes, mallocs, gcCycles uint64
}

func readUsage() usage {
	var s [len(usageSamples)]metrics.Sample
	for i, name := range usageSamples {
		s[i].Name = name
	}
	metrics.Read(s[:])
	return usage{
		cpuSeconds: telemetry.CPUSeconds(),
		allocBytes: s[0].Value.Uint64(),
		mallocs:    s[1].Value.Uint64() + s[2].Value.Uint64(),
		gcCycles:   s[3].Value.Uint64(),
	}
}

// memoEntry is one resolved result: its canonical payload and, once
// RunDecoded has asked for it, the value decoded from it. Every job
// with the entry's key shares both, in every engine that holds the
// entry, so neither may be modified.
type memoEntry struct {
	payload []byte
	decode  sync.Once
	value   any // a *T, set by decoded
}

type runningJob struct {
	Label string
	Since time.Time
}

type engineTelemetry struct {
	jobs     *telemetry.Counter
	executed *telemetry.Counter
	hits     *telemetry.Counter
	misses   *telemetry.Counter
	failures *telemetry.Counter
	corrupt  *telemetry.Counter
	queue    *telemetry.Gauge
	busy     *telemetry.Gauge
	jobMS    *telemetry.Histogram
	cpuMS    *telemetry.Counter
	alloc    *telemetry.Counter
	mallocs  *telemetry.Counter
	gc       *telemetry.Counter
}

// New builds an engine. The zero Options value is a serial, uncached
// engine — the drop-in replacement for an inline loop.
func New(opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.NumCPU()
	}
	e := &Engine{opts: opts, inFlite: map[int]runningJob{}, memo: map[string]*memoEntry{}}
	if reg := opts.Metrics; reg != nil {
		e.tel = engineTelemetry{
			jobs:     reg.Counter(telemetry.MetricEngineJobs, "jobs submitted to the engine"),
			executed: reg.Counter(telemetry.MetricEngineExecuted, "jobs actually executed (cache misses)"),
			hits:     reg.Counter(telemetry.MetricEngineCacheHits, "jobs served from the result cache"),
			misses:   reg.Counter(telemetry.MetricEngineCacheMiss, "jobs not found in the result cache"),
			failures: reg.Counter(telemetry.MetricEngineFailures, "jobs whose execution returned an error or panicked"),
			corrupt:  reg.Counter(telemetry.MetricEngineCacheCorrupt, "cache objects that failed checksum verification"),
			queue:    reg.Gauge(telemetry.MetricEngineQueueLen, "jobs waiting for a worker"),
			busy:     reg.Gauge(telemetry.MetricEngineBusy, "workers currently executing a job"),
			jobMS: reg.Histogram(telemetry.MetricEngineJobMS,
				"wall milliseconds per executed job", telemetry.LatencyCycleBuckets()),
			cpuMS:   reg.Counter(telemetry.MetricEngineJobCPUMS, "process CPU milliseconds attributed to executed jobs"),
			alloc:   reg.Counter(telemetry.MetricEngineJobAllocBytes, "heap bytes allocated over executed jobs"),
			mallocs: reg.Counter(telemetry.MetricEngineJobMallocs, "heap objects allocated over executed jobs"),
			gc:      reg.Counter(telemetry.MetricEngineJobGCCycles, "GC cycles completed during executed jobs"),
		}
	}
	return e
}

// InFlight returns how many jobs are executing right now (the /healthz
// jobs_in_flight probe).
func (e *Engine) InFlight() int { return int(e.running.Load()) }

// Report summarizes one Run call. Payloads holds the canonical JSON
// result of each job in submission order; decode with Decode, or run
// the batch through RunDecoded instead. A payload may share its bytes
// with other reports of the same engine, or of any engine over the same
// cache, so callers must not modify it.
type Report struct {
	Payloads  [][]byte
	Executed  int
	CacheHits int
}

// Run executes every job and returns their canonical payloads in
// submission order. Jobs are pulled by up to Workers goroutines and
// each runs once; a job that panics or errors cancels the jobs still
// queued (in-flight jobs finish, and are cached) and its error is
// returned after the pool drains. Run may be called repeatedly on one
// engine; the cache and counters carry across calls.
//
// An engine with a cache resolves each key at most once per lifetime:
// it remembers every payload it resolved (by cache read or execution)
// and serves a repeat from memory, counted and emitted as the cache hit
// it would have been. A payload it read back from the cache is also
// kept in the cache's shared memo, so a later engine over the same
// Cache serves that key from memory too; an executed one stays with its
// engine. An engine without a cache executes every job on every Run.
func (e *Engine) Run(ctx context.Context, jobs []Job) (*Report, error) {
	rep, _, err := e.run(ctx, jobs)
	return rep, err
}

// RunDecoded runs jobs like Run and returns their results decoded as T,
// in submission order. An engine with a cache decodes each key at most
// once in its lifetime, and a key it read back from the cache at most
// once for every engine over that Cache: a repeat returns the value
// decoded the first time, shared with every other caller, so none may
// modify it (a T holding maps, slices or pointers shares those too). An
// engine without a cache decodes every job.
func RunDecoded[T any](ctx context.Context, e *Engine, jobs []Job) ([]T, error) {
	_, outs, err := e.run(ctx, jobs)
	if err != nil {
		return nil, err
	}
	vals := make([]T, len(outs))
	for i, o := range outs {
		if vals[i], err = decoded[T](o.res); err != nil {
			return nil, fmt.Errorf("engine: job %q: %w", label(jobs[i]), err)
		}
	}
	return vals, nil
}

// decoded returns the entry's payload decoded as T, decoding it on the
// first call. A failed decode keeps nothing, so each later call returns
// the error again, and a caller asking for a type other than the first
// caller's decodes a copy of its own.
func decoded[T any](m *memoEntry) (T, error) {
	m.decode.Do(func() {
		if v, err := Decode[T](m.payload); err == nil {
			m.value = &v
		}
	})
	if v, ok := m.value.(*T); ok {
		return *v, nil
	}
	return Decode[T](m.payload)
}

// run is Run, also returning each job's outcome in submission order.
func (e *Engine) run(ctx context.Context, jobs []Job) (*Report, []outcome, error) {
	rep := &Report{Payloads: make([][]byte, len(jobs))}
	if len(jobs) == 0 {
		return rep, nil, nil
	}
	e.total.Add(uint64(len(jobs)))
	e.tel.jobs.Add(float64(len(jobs)))
	e.queued.Add(int64(len(jobs)))
	e.tel.queue.Add(float64(len(jobs)))
	// Queued events are emitted up front in submission order — the one
	// part of the job lifecycle whose ordering is deterministic under any
	// worker count.
	for i := range jobs {
		e.opts.Events.Emit(events.Event{
			Type: events.JobQueued, Name: label(jobs[i]), N: int64(len(jobs)),
		})
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := e.opts.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	outs := make([]outcome, len(jobs))
	next := make(chan int)
	go func() {
		defer close(next)
		for i := range jobs {
			select {
			case next <- i:
			case <-ctx.Done():
				// Jobs i.. were never handed to a worker (cancelled):
				// settle this batch's share of the gauges.
				e.queued.Add(-int64(len(jobs) - i))
				e.tel.queue.Add(-float64(len(jobs) - i))
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for slot := 0; slot < workers; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := range next {
				e.queued.Add(-1)
				e.tel.queue.Add(-1)
				o := e.process(ctx, slot, jobs[i])
				outs[i] = o
				if o.err != nil {
					cancel() // stop feeding queued jobs
				}
			}
		}(slot)
	}
	wg.Wait()

	var firstErr error
	for i, o := range outs {
		if o.res != nil {
			rep.Payloads[i] = o.res.payload
		}
		switch {
		case o.executed:
			rep.Executed++
		case o.hit:
			rep.CacheHits++
		}
		if o.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: job %q: %w", label(jobs[i]), o.err)
		}
	}
	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	return rep, outs, firstErr
}

func label(j Job) string {
	if j.Label != "" {
		return j.Label
	}
	return j.Key
}

// outcome is one job's bookkeeping: its result, how it was resolved and
// whether it failed.
type outcome struct {
	res           *memoEntry // nil when the job failed
	executed, hit bool
	err           error
}

// process resolves one job: memo and cache, else one execution with
// panic isolation.
func (e *Engine) process(ctx context.Context, slot int, j Job) (o outcome) {
	if ctx.Err() != nil {
		o.err = ctx.Err()
		return o
	}
	var hash string
	if e.opts.Cache != nil {
		if o.res, hash = e.cacheGet(j); o.res != nil {
			e.hits.Add(1)
			e.tel.hits.Inc()
			e.opts.Events.Emit(events.Event{Type: events.JobCacheHit, Name: label(j)})
			o.hit = true
			return o
		}
		e.tel.misses.Inc()
	} else {
		hash = HashKey(CodeVersion(), j.Key)
	}

	e.running.Add(1)
	e.tel.busy.Add(1)
	e.mu.Lock()
	e.inFlite[slot] = runningJob{Label: label(j), Since: time.Now()}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.inFlite, slot)
		e.mu.Unlock()
		e.running.Add(-1)
		e.tel.busy.Add(-1)
	}()

	jctx, sp := telemetry.StartSpan(ctx, "job:"+label(j), telemetry.A("hash", hash[:12]))
	defer sp.End()
	e.opts.Events.Emit(events.Event{Type: events.JobStarted, Name: label(j), Worker: slot})
	u0 := readUsage()
	start := time.Now()
	result, err := runIsolated(jctx, j)
	var payload []byte
	if err == nil {
		if payload, err = json.Marshal(result); err != nil {
			err = fmt.Errorf("marshal result: %w", err)
		}
	}
	if err != nil {
		var pe *panicError
		if errors.As(err, &pe) {
			e.opts.Events.Emit(events.Event{Type: events.JobPanic, Name: label(j), Detail: pe.value})
		}
		e.failures.Add(1)
		e.tel.failures.Inc()
		sp.SetAttr("error", fmt.Sprint(err))
		e.opts.Events.Emit(events.Event{Type: events.JobFailed, Name: label(j), Detail: firstLine(err)})
		o.err = err
		return o
	}
	wall := time.Since(start)
	u1 := readUsage()
	res := jobResources{
		WallMS:     wall.Milliseconds(),
		CPUMS:      int64((u1.cpuSeconds - u0.cpuSeconds) * 1e3),
		AllocBytes: u1.allocBytes - u0.allocBytes,
		Mallocs:    u1.mallocs - u0.mallocs,
		GCCycles:   u1.gcCycles - u0.gcCycles,
	}
	e.account(label(j), res)
	e.tel.jobMS.Observe(float64(res.WallMS))
	o.res = e.cachePut(j, hash, payload)
	e.executed.Add(1)
	e.tel.executed.Inc()
	// N stays 1, the executions a job gets, so event logs keep their
	// shape.
	e.opts.Events.Emit(events.Event{
		Type: events.JobFinished, Name: label(j), Worker: slot,
		MS: time.Since(start).Milliseconds(), N: 1,
	})
	o.executed = true
	return o
}

// firstLine renders an error's first line — event Detail fields carry
// the headline, not a panic's full stack trace.
func firstLine(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// cacheGet resolves j from the engine's memo, else from the cache's
// shared memo, else hashes its key and reads the cache, keeping what it
// reads in both memos; it returns the hash it computed (none on a memo
// hit). Every cache failure maps to "not cached".
// Corruption is counted and logged (the object has already been
// quarantined by Cache.Get); unexpected read errors are logged so a
// dying disk is visible, but neither ever fails the job — the engine
// recomputes instead.
func (e *Engine) cacheGet(j Job) (*memoEntry, string) {
	e.mu.Lock()
	m := e.memo[j.Key]
	e.mu.Unlock()
	if m != nil {
		return m, ""
	}
	c := e.opts.Cache
	if m := c.recall(j.Key); m != nil {
		return e.remember(j.Key, m), ""
	}
	hash := HashKey(c.Version(), j.Key)
	p, err := c.Get(hash)
	switch {
	case err == nil:
		return e.remember(j.Key, c.share(j.Key, &memoEntry{payload: p})), hash
	case errors.Is(err, fs.ErrNotExist):
	case errors.Is(err, ErrCorrupt):
		e.corrupt.Add(1)
		e.tel.corrupt.Inc()
		log.Errorf("engine: %s: %v (quarantined; recomputing)", label(j), err)
	default:
		log.Errorf("engine: cache read %s: %v (recomputing)", label(j), err)
	}
	return nil, hash
}

// cachePut remembers a fresh payload in the engine's memo (not the
// shared one: a later engine reads it back once) and stores it in the
// cache, degrading to memo-only operation on failure: the first error
// warns, later ones are dropped so an unwritable cache directory does
// not flood a long sweep's log. It returns the job's result, which an
// engine without a cache keeps for this job alone.
func (e *Engine) cachePut(j Job, hash string, payload []byte) *memoEntry {
	if e.opts.Cache == nil {
		return &memoEntry{payload: payload}
	}
	m := e.remember(j.Key, &memoEntry{payload: payload})
	if err := e.opts.Cache.Put(hash, payload); err != nil {
		if e.putWarned.CompareAndSwap(false, true) {
			log.Errorf("engine: cache put %s: %v (continuing without cache writes)", label(j), err)
		}
	}
	return m
}

// remember makes m key's entry unless the key has one already, and
// returns the key's entry: the first resolution of a key is the one
// every later job shares, decoded value included.
func (e *Engine) remember(key string, m *memoEntry) *memoEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	if old := e.memo[key]; old != nil {
		return old
	}
	e.memo[key] = m
	return m
}

// account folds one executed job's resources into the engine-lifetime
// totals and the telemetry counters.
func (e *Engine) account(jobLabel string, r jobResources) {
	e.jobWallMS.Add(r.WallMS)
	e.jobCPUMS.Add(r.CPUMS)
	e.allocBytes.Add(r.AllocBytes)
	e.mallocs.Add(r.Mallocs)
	e.gcCycles.Add(r.GCCycles)
	e.tel.cpuMS.Add(float64(r.CPUMS))
	e.tel.alloc.Add(float64(r.AllocBytes))
	e.tel.mallocs.Add(float64(r.Mallocs))
	e.tel.gc.Add(float64(r.GCCycles))
	e.mu.Lock()
	if r.WallMS > e.maxJobWallMS || e.maxJobLabel == "" {
		e.maxJobWallMS = r.WallMS
		e.maxJobLabel = jobLabel
	}
	e.mu.Unlock()
}

// panicError is a recovered job panic: the panic value as a headline
// plus the goroutine stack. Typed so the event plane can report the
// isolation distinctly from ordinary job errors.
type panicError struct {
	value string
	stack string
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %s\n%s", p.value, p.stack) }

// runIsolated invokes the job function, converting a panic into an
// error so a bad configuration fails one job, not the whole sweep.
func runIsolated(ctx context.Context, j Job) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = &panicError{value: fmt.Sprint(r), stack: string(buf)}
		}
	}()
	return j.Fn(ctx)
}

// Decode unmarshals one canonical payload.
func Decode[T any](payload []byte) (T, error) {
	var v T
	err := json.Unmarshal(payload, &v)
	return v, err
}

// KeyJSON renders v as the canonical key string for Job.Key: compact
// JSON with struct fields in declaration order (encoding/json), which
// is deterministic for a fixed type. Maps are avoided by convention —
// key structs should use only ordered fields.
func KeyJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Key structs are plain data; a marshal failure is a programming
		// error best surfaced immediately.
		panic(fmt.Sprintf("engine: KeyJSON: %v", err))
	}
	return string(b)
}
