package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/memsim"
	"racetrack/hifi/internal/serve"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/trace"
)

// coldRuns are the experiments a serve-cold job draws one of: the
// simulation-backed sweeps, 36 to 84 simulations each.
var coldRuns = []string{"fig10", "fig11", "fig14", "fig16"}

// warmRuns is every serve-warm spec's sweep: seven experiments whose
// simulations overlap, so a prefilled cache serves all of them.
var warmRuns = []string{"fig10", "fig11", "fig14", "fig16", "fig17", "fig18", "abl-promo"}

// servedClients is the closed-loop client count of the served workloads:
// two callers that each wait for their sweep before submitting the next.
const servedClients = 2

// servedTiming is a served op's breakdown: client-side phases, and (in
// traced runs) the server's own timestamps and engine ledger for the job.
type servedTiming struct {
	submit, events, tables time.Duration
	deduped                bool
	// reconnects counts event-stream reconnects the client needed to
	// see the job's terminal event.
	reconnects           int
	queue, run           time.Duration
	jobs, executed, hits uint64
}

// servedSession drives a real serve.Server behind an httptest server,
// configured as cmd/hifi-serve configures it by default: two runners,
// engine workers on every core, a metrics registry, and a result cache
// with its job index in a fresh directory. The modelled caches and the
// result cache start empty.
type servedSession struct {
	p    params
	warm bool
	// base is serve-cold's first trace seed: job n runs at base+n, so no
	// two cold jobs share a simulation.
	base uint64
	// specs are serve-warm's prefilled specs.
	specs []serve.Spec

	dir    string
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func openServeCold(_ context.Context, p params) (session, error) {
	// The warm-up job runs at base-1, so base stays at least 2.
	return &servedSession{p: p, base: traceSeed(planRNG(p.seed, "serve-cold"))>>8 + 2}, nil
}

func openServeWarm(_ context.Context, p params) (session, error) {
	return &servedSession{p: p, warm: true, specs: warmSpecs(p.seed, p.size)}, nil
}

// warmSpecs draws serve-warm's specs: the same sweep at distinct trace
// seeds.
func warmSpecs(seed uint64, sz sizes) []serve.Spec {
	rng := planRNG(seed, "serve-warm")
	specs := make([]serve.Spec, sz.warmSpecs)
	for i := range specs {
		specs[i] = serve.Spec{Run: warmRuns, Scaled: true, Accesses: sz.servedAccesses, Seed: traceSeed(rng)}
	}
	return specs
}

// render runs a spec's experiments directly and renders them as the
// server's text tables: one blank line between tables.
func render(ctx context.Context, spec serve.Spec, eng *engine.Engine) (string, error) {
	opts, err := spec.RunOpts()
	if err != nil {
		return "", err
	}
	opts.Eng = eng
	opts.Ctx = ctx
	parts := make([]string, len(spec.Run))
	for i, k := range spec.Run {
		tab, err := experiments.Run(k, opts)
		if err != nil {
			return "", err
		}
		parts[i] = tab.String()
	}
	return strings.Join(parts, "\n"), nil
}

// coldSpec is serve-cold's n-th job, at a trace seed no other job uses.
// Each block of len(coldRuns) jobs runs every sweep once in a seed-drawn
// order, so the work mix of a window does not depend on the seed.
func (s *servedSession) coldSpec(n int) serve.Spec {
	block := n / len(coldRuns)
	order := rand.New(rand.NewPCG(s.p.seed, uint64(block))).Perm(len(coldRuns))
	return serve.Spec{
		Run:      []string{coldRuns[order[n%len(coldRuns)]]},
		Scaled:   true,
		Accesses: s.p.size.servedAccesses,
		Seed:     s.base + uint64(n),
	}
}

// specFor returns the n-th op's spec and plan item: a new cold job, or a
// seed-drawn resubmission of one warm spec.
func (s *servedSession) specFor(n int) (serve.Spec, int) {
	if !s.warm {
		return s.coldSpec(n), n
	}
	item := rand.New(rand.NewPCG(s.p.seed, uint64(n))).IntN(len(s.specs))
	return s.specs[item], item
}

// setup starts a fresh server over an empty cache directory. serve-cold
// then runs one job outside its plan; serve-warm prefills every spec.
func (s *servedSession) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(s.p.tmp, "serve-")
	if err != nil {
		return err
	}
	s.dir = dir
	s.srv = serve.New(serve.Options{
		CacheDir: dir,
		Runners:  2,
		Metrics:  telemetry.NewRegistry(),
	})
	s.ts = httptest.NewServer(s.srv.Handler())
	s.client = s.ts.Client()
	if !s.warm {
		warmup := s.coldSpec(0)
		warmup.Seed = s.base - 1
		_, err := s.job(ctx, warmup)
		return err
	}
	ids := make([]string, len(s.specs))
	for i, spec := range s.specs {
		if ids[i], _, err = s.submit(ctx, spec); err != nil {
			return err
		}
	}
	for _, id := range ids {
		if _, err := s.follow(ctx, id); err != nil {
			return err
		}
	}
	return nil
}

func (s *servedSession) teardown() {
	if s.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve drain: %v\n", err)
	}
	s.ts.Close()
	if err := os.RemoveAll(s.dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	s.srv = nil
}

func (s *servedSession) digestItems() int {
	if s.warm {
		return len(s.specs)
	}
	return s.p.size.coldDigest
}

func (s *servedSession) op(ctx context.Context, n int) opRecord {
	spec, item := s.specFor(n)
	rec := opRecord{n: n, item: item, start: time.Now()}
	ctx, sp := telemetry.StartSpan(ctx, "op", telemetry.AInt("item", int64(item)))
	defer sp.End()
	out, err := s.timedJob(ctx, spec, &rec)
	rec.end = time.Now()
	rec.cycle = rec.end.Sub(rec.start)
	rec.err = err
	rec.out = []byte(out)
	return rec
}

// timedJob is one client turn: POST the spec, follow the job's event
// stream to its terminal event, fetch the text tables. rec receives the
// latency and its phases; a traced run also reads the job's status.
func (s *servedSession) timedJob(ctx context.Context, spec serve.Spec, rec *opRecord) (string, error) {
	t := &rec.served
	phase := func(name string, f func(context.Context) error) (time.Duration, error) {
		pctx, sp := telemetry.StartSpan(ctx, name)
		t0 := time.Now()
		err := f(pctx)
		sp.End()
		return time.Since(t0), err
	}
	var id, text string
	var err error
	if t.submit, err = phase("submit", func(ctx context.Context) (err error) {
		id, t.deduped, err = s.submit(ctx, spec)
		return err
	}); err != nil {
		return "", err
	}
	waitStart := time.Now()
	if t.events, err = phase("events", func(ctx context.Context) (err error) {
		t.reconnects, err = s.follow(ctx, id)
		return err
	}); err != nil {
		return "", err
	}
	rec.lat = t.submit + t.events
	if t.tables, err = phase("tables", func(ctx context.Context) (err error) {
		text, err = s.get(ctx, "/v1/jobs/"+id+"/tables")
		return err
	}); err != nil {
		return "", err
	}
	if s.p.traced {
		body, err := s.get(ctx, "/v1/jobs/"+id)
		if err != nil {
			return "", err
		}
		var st serve.JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			return "", fmt.Errorf("job status: %w", err)
		}
		// The server's queue and run intervals, clipped to this client's
		// wait for the terminal event: a deduplicated submission joins a
		// job that was created, and may have started, before it.
		lo, hi := msOf(waitStart), msOf(waitStart.Add(t.events))
		clip := func(from, to int64) time.Duration {
			d := min(float64(to), hi) - max(float64(from), lo)
			return time.Duration(max(d, 0) * float64(time.Millisecond))
		}
		t.queue = clip(st.CreatedTMS, st.StartedTMS)
		t.run = clip(st.StartedTMS, st.FinishedTMS)
		if st.Engine != nil {
			t.jobs, t.executed, t.hits = st.Engine.Jobs, st.Engine.Executed, st.Engine.CacheHits
		}
	}
	return text, nil
}

// msOf is t in Unix milliseconds, the resolution of the job timestamps.
func msOf(t time.Time) float64 { return float64(t.UnixMicro()) / 1e3 }

// job runs one untimed client turn.
func (s *servedSession) job(ctx context.Context, spec serve.Spec) (string, error) {
	var rec opRecord
	return s.timedJob(ctx, spec, &rec)
}

// submit POSTs a spec and returns the job ID and whether the submission
// coalesced onto a live identical job.
func (s *servedSession) submit(ctx context.Context, spec serve.Spec) (string, bool, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", false, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", false, fmt.Errorf("submit: HTTP %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", false, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
	return st.ID, st.Deduped, nil
}

// errNoTerminal is a job stream that ended before its terminal event.
var errNoTerminal = errors.New("event stream ended without a terminal serve.job event")

// maxReconnects bounds how often follow resumes one job's stream.
const maxReconnects = 3

// follow reads the job's SSE stream until its terminal event, which must
// be serve.job.finished. The server drops events a subscriber is too slow
// for (a burst of cache hits can overflow its buffer) and closes the
// stream shortly after the job ends; as the SSE contract and hifi-watch
// do, follow then reconnects with Last-Event-ID and the replay ring
// resends what it missed. It returns how many reconnects it needed.
func (s *servedSession) follow(ctx context.Context, id string) (int, error) {
	var last string
	for reconnects := 0; ; reconnects++ {
		done, err := s.stream(ctx, id, &last)
		switch {
		case err != nil:
			return reconnects, err
		case done:
			return reconnects, nil
		case reconnects == maxReconnects:
			return reconnects, errNoTerminal
		}
	}
}

// stream reads one connection of the job's event stream, resuming after
// *last and recording each event id it sees there. It reports whether
// the terminal event arrived.
func (s *servedSession) stream(ctx context.Context, id string, last *string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return false, err
	}
	if *last != "" {
		req.Header.Set("Last-Event-ID", *last)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			*last = v
			continue
		}
		typ, ok := strings.CutPrefix(line, "event: ")
		if !ok {
			continue
		}
		switch events.Type(typ) {
		case events.ServeJobFinished:
			return true, nil
		case events.ServeJobFailed, events.ServeJobCanceled:
			return false, fmt.Errorf("job %s ended %s", id, typ)
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("events: %w", err)
	}
	return false, nil
}

// get fetches a path and returns its body; anything but 200 is an error.
func (s *servedSession) get(ctx context.Context, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return string(b), nil
}

// reference renders a plan item's tables directly.
func (s *servedSession) reference(ctx context.Context, item int) ([]byte, error) {
	spec := s.coldSpec(item)
	if s.warm {
		spec = s.specs[item]
	}
	text, err := render(ctx, spec, engine.New(engine.Options{}))
	return []byte(text), err
}

// coldSample is the share of serve-cold jobs recomputed directly after
// the window: the one in eight whose seed-mixed index falls in residue 0.
const coldSample = 8

// verify compares served tables with direct runs after the window, so the
// reference computation does not weigh on set-up or the window's memory.
// Every serve-warm op is compared with its spec rendered directly through
// an engine and cache of its own; one serve-cold job in coldSample, chosen
// by the seed, is recomputed.
func (s *servedSession) verify(ctx context.Context, recs []opRecord, _ map[int][]byte) ([]int, []error) {
	want := map[int][]byte{}
	if s.warm {
		dir, err := os.MkdirTemp(s.p.tmp, "expected-")
		if err != nil {
			return nil, []error{err}
		}
		defer os.RemoveAll(dir)
		c, err := engine.OpenCache(dir, "")
		if err != nil {
			return nil, []error{err}
		}
		for i, spec := range s.specs {
			text, err := render(ctx, spec, engine.New(engine.Options{Cache: c}))
			if err != nil {
				return nil, []error{fmt.Errorf("render warm spec %d: %w", i, err)}
			}
			want[i] = []byte(text)
		}
	}
	var bad []int
	var errs []error
	for i, r := range recs {
		if r.err != nil {
			continue
		}
		if !s.warm {
			if engine.SubSeed(s.p.seed, fmt.Sprint(r.item))%coldSample != 0 {
				continue
			}
			b, err := s.reference(ctx, r.item)
			if err != nil {
				errs = append(errs, fmt.Errorf("recompute cold job %d: %w", r.item, err))
				continue
			}
			want[r.item] = b
		}
		if !bytes.Equal(want[r.item], r.out) {
			bad = append(bad, i)
		}
	}
	return bad, errs
}

// layers reports the served workload's per-layer metrics: the client
// turn's phases, the server's queue and run time, the engine ledger, and
// kernel replays of served-config simulations.
func (s *servedSession) layers(ctx context.Context, w *window) (map[string]float64, error) {
	rng := planRNG(s.p.seed, "kernels")
	schemes := []shiftctrl.Scheme{
		shiftctrl.Baseline, shiftctrl.SED, shiftctrl.SECDED,
		shiftctrl.PECCO, shiftctrl.PECCSWorst, shiftctrl.PECCSAdaptive,
	}
	roster := trace.PARSEC()
	var ks []kernelItem
	for i := 0; i < s.p.size.kernelItems; i++ {
		spec, _ := s.specFor(rng.IntN(len(w.recs)))
		ks = append(ks, servedKernel(spec, roster[rng.IntN(len(roster))], schemes[rng.IntN(len(schemes))]))
	}
	vals, err := runKernels(ctx, ks)
	if err != nil {
		return nil, err
	}
	// One simulation's uncontended time, at the kernel sample's mean.
	sim := ks[0].cfg
	simNS := vals["memsim.ns_per_access"]*float64(sim.Cores*sim.AccessesPerCore) + vals["memsim.setup_ms_per_run"]*1e6

	recs := w.succeeded()
	var cycle, submit, evs, tables, queue, run, memsimNS, deduped, reconnects float64
	var jobs, executed, hits uint64
	for _, r := range recs {
		t := r.served
		cycle += float64(r.cycle)
		submit += float64(t.submit)
		evs += float64(t.events)
		tables += float64(t.tables)
		queue += float64(t.queue)
		run += float64(t.run)
		memsimNS += float64(t.executed) * simNS
		if t.deduped {
			deduped++
		}
		reconnects += float64(t.reconnects)
		jobs += t.jobs
		executed += t.executed
		hits += t.hits
	}
	n := float64(len(recs))
	vals["serve.submit_share"] = submit / cycle
	vals["serve.queue_share"] = queue / cycle
	vals["serve.run_share"] = run / cycle
	vals["serve.delivery_share"] = (evs - queue - run) / cycle
	vals["serve.tables_share"] = tables / cycle
	vals["serve.deduped_frac"] = deduped / n
	vals["serve.reconnects_per_job"] = reconnects / n
	vals["serve.retained_kb_per_job"] = float64(w.heapGrowth) / n / 1024
	vals["engine.hit_frac"] = float64(hits) / float64(max(jobs, 1))
	vals["engine.executed_per_op"] = float64(executed) / n
	// Simulation time is the kernel's uncontended estimate; the rest of
	// the run phase is the engine's (cache I/O, payload decoding, table
	// rendering) plus whatever contention between concurrent jobs added.
	vals["memsim.share"] = memsimNS / cycle
	vals["engine.overhead_share"] = (run - memsimNS) / cycle
	hostMetrics(vals, w)
	return vals, nil
}

// servedKernel is one simulation as a served spec runs it: experiments'
// scaled hierarchy (2 KB L1, 8 KB L2, 1 MB racetrack L3, working sets
// shrunk 128x but at least 12 KB) with the server's metrics registry
// attached.
func servedKernel(spec serve.Spec, w trace.Workload, scheme shiftctrl.Scheme) kernelItem {
	cfg := memsim.DefaultConfig(energy.Racetrack, scheme)
	cfg.AccessesPerCore = spec.Accesses
	cfg.Seed = spec.Seed
	cfg.L1Capacity, cfg.L2Capacity, cfg.L3Capacity = 2<<10, 8<<10, 1<<20
	w.WorkingSetB = max(w.WorkingSetB>>7, 12<<10)
	cfg.Metrics = telemetry.NewRegistry()
	return kernelItem{w: w, cfg: cfg}
}
