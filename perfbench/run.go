package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"racetrack/hifi/internal/telemetry"
)

// sizes fixes how much work one op and one run carry. The defaults are
// the benchmark; tests shrink them.
type sizes struct {
	// rtmAccesses and sramAccesses are the trace length per core of one
	// direct-rtm and one direct-sram simulation on the full Table 4
	// hierarchy.
	rtmAccesses, sramAccesses int
	// servedAccesses is the trace length per core of every served spec.
	servedAccesses int
	// warmSpecs is how many distinct specs serve-warm prefills and then
	// resubmits.
	warmSpecs int
	// coldDigest is how many leading serve-cold jobs the output digest
	// covers (cold jobs never repeat, so the digest cannot cover them all).
	coldDigest int
	// minOps extends a window until this many ops completed, so the p90
	// always has at least ten samples beyond it. peak_live_mb covers the
	// first minOps ops, so it covers the same work in every run however
	// fast the host is.
	minOps int
	// setups is how many times a run builds its system; setup_s is their
	// median.
	setups int
	// kernelItems is how many of the workload's simulations the traced
	// run replays through the per-layer kernels.
	kernelItems int
}

var defaultSizes = sizes{
	rtmAccesses:    25_000,
	sramAccesses:   50_000,
	servedAccesses: 2_000,
	warmSpecs:      8,
	coldDigest:     16,
	minOps:         100,
	setups:         3,
	kernelItems:    8,
}

// params is everything one run depends on besides the workload.
type params struct {
	seed    uint64
	seconds float64
	traced  bool
	size    sizes
	// tmp is a scratch directory the run owns (result caches, job
	// indexes); it is removed when the run ends.
	tmp string
}

// opRecord is one finished operation of the timed window.
type opRecord struct {
	// n is the op's position in the window; item is the plan item it
	// ran. Ops of equal items must produce byte-equal outputs.
	n, item    int
	out        []byte
	start, end time.Time
	// lat is what the user waits for: one simulation, or POST to the
	// job's terminal event.
	lat time.Duration
	// cycle is one closed-loop client turn: lat plus fetching results.
	cycle time.Duration
	err   error
	// served holds the client-side phases and server-side timestamps of
	// a served op.
	served servedTiming
}

// session is one workload's system under test and its seed-drawn plan.
type session interface {
	// setup builds the system from scratch, replacing any previous one,
	// and leaves it ready for the first timed op.
	setup(ctx context.Context) error
	// op runs the window's n-th operation.
	op(ctx context.Context, n int) opRecord
	// digestItems is how many leading plan items the output digest covers.
	digestItems() int
	// reference computes a plan item's output outside the window, for a
	// digest item the window did not reach.
	reference(ctx context.Context, item int) ([]byte, error)
	// verify runs the post-window output checks on the window's records
	// and the first output of every item. It returns the indices of
	// records whose output failed a check and any run-level failures.
	verify(ctx context.Context, recs []opRecord, outs map[int][]byte) (bad []int, errs []error)
	// layers runs the traced run's per-layer kernels.
	layers(ctx context.Context, w *window) (map[string]float64, error)
	// teardown releases the system; it is safe to call more than once.
	teardown()
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// clients is the number of closed-loop clients issuing ops.
	clients int
	open    func(ctx context.Context, p params) (session, error)
}

// window is what the timed window observed.
type window struct {
	recs       []opRecord
	start, end time.Time
	cpuS       float64
	gcCycles   uint32
	// heapGrowth is the live-heap growth over the window; only traced runs
	// collect garbage at both ends, so only there is it live memory.
	heapGrowth int64
	// peakLive is the largest live heap a collection measured up to the
	// minOps-th op, including one forced there.
	peakLive uint64
	// calibration holds the host-speed kernel's time before every op.
	calibration []time.Duration
	spans       telemetry.SpanExport
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// succeeded returns the records of ops that did not fail.
func (w *window) succeeded() []opRecord {
	var ok []opRecord
	for _, r := range w.recs {
		if r.err == nil {
			ok = append(ok, r)
		}
	}
	return ok
}

// outcome is one run's result.
type outcome struct {
	values   map[string]float64 // the mode's metrics by name
	endToEnd map[string]float64 // always the end-to-end values
	// raw is endToEnd before the host-speed scaling; slowdown is the
	// run's median calibration time over refCalibration.
	raw       map[string]float64
	slowdown  float64
	attempted int
	failed    int
	failures  []string
	digest    string
	// spans is the traced run's span export.
	spans telemetry.SpanExport
}

// measure runs one workload: set up several times, time the window, check
// the outputs, and (traced) run the per-layer kernels.
func measure(ctx context.Context, wl workload, p params) (*outcome, error) {
	var col *telemetry.SpanCollector
	if p.traced {
		col = telemetry.NewSpanCollector(nil)
		ctx = telemetry.WithCollector(ctx, col)
	}
	ctx, root := telemetry.StartSpan(ctx, "perfbench:"+wl.name)
	defer root.End()

	s, err := wl.open(ctx, p)
	if err != nil {
		return nil, err
	}
	defer s.teardown()
	setups := make([]float64, 0, p.size.setups)
	var cal []time.Duration
	for i := 0; i < p.size.setups; i++ {
		if i > 0 {
			s.teardown()
			runtime.GC()
		}
		cal = append(cal, calibrate())
		sctx, sp := telemetry.StartSpan(ctx, "setup")
		t0 := time.Now()
		err := s.setup(sctx)
		setups = append(setups, time.Since(t0).Seconds())
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
	}

	wctx, sp := telemetry.StartSpan(ctx, "window")
	win := runWindow(wctx, s, wl.clients, p)
	sp.End()
	ok := win.succeeded()
	if len(ok) == 0 {
		return nil, fmt.Errorf("no op succeeded: %v", win.recs[0].err)
	}
	lats := make([]float64, len(ok))
	for i, r := range ok {
		lats[i] = float64(r.lat) / 1e6
	}
	cals := make([]float64, 0, len(cal)+len(win.calibration))
	for _, d := range append(cal, win.calibration...) {
		cals = append(cals, float64(d))
	}
	out := &outcome{
		attempted: len(win.recs),
		slowdown:  median(cals) / float64(refCalibration),
		raw: map[string]float64{
			"setup_s":      median(setups),
			"ops_per_s":    float64(len(ok)) / win.seconds(),
			"op_p50_ms":    quantile(lats, 0.5),
			"op_p90_ms":    quantile(lats, 0.9),
			"peak_live_mb": float64(win.peakLive) / (1 << 20),
		},
	}
	out.endToEnd = map[string]float64{
		"setup_s":      out.raw["setup_s"] / out.slowdown,
		"ops_per_s":    out.raw["ops_per_s"] * out.slowdown,
		"op_p50_ms":    out.raw["op_p50_ms"] / out.slowdown,
		"op_p90_ms":    out.raw["op_p90_ms"] / out.slowdown,
		"peak_live_mb": out.raw["peak_live_mb"],
	}

	vctx, sp := telemetry.StartSpan(ctx, "verify")
	err = out.check(vctx, s, win)
	sp.End()
	if err != nil {
		return nil, err
	}
	out.values = out.endToEnd
	if p.traced {
		win.spans = col.Export()
		kctx, sp := telemetry.StartSpan(ctx, "kernels")
		vals, err := s.layers(kctx, win)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		out.values = vals
		root.End()
		out.spans = col.Export()
	}
	return out, nil
}

// runWindow issues ops from the closed-loop clients until the window's
// seconds have passed and at least minOps ops have completed.
func runWindow(ctx context.Context, s session, clients int, p params) *window {
	w := &window{}
	var ms0, ms1 runtime.MemStats
	if p.traced {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuSeconds()
	w.start = time.Now()
	deadline := w.start.Add(time.Duration(p.seconds * float64(time.Second)))
	var next, done atomic.Int64
	var peak atomicMax
	per := make([][]opRecord, clients)
	cal := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if n >= p.size.minOps && !time.Now().Before(deadline) {
					return
				}
				cal[c] = append(cal[c], calibrate())
				per[c] = append(per[c], s.op(ctx, n))
				switch d := done.Add(1); {
				case d < int64(p.size.minOps):
					peak.max(liveHeap())
				case d == int64(p.size.minOps):
					runtime.GC()
					peak.max(liveHeap())
				}
			}
		}(c)
	}
	wg.Wait()
	w.cpuS = cpuSeconds() - cpu0
	w.peakLive = peak.Load()
	if p.traced {
		runtime.GC()
	}
	runtime.ReadMemStats(&ms1)
	w.gcCycles = ms1.NumGC - ms0.NumGC
	w.heapGrowth = int64(ms1.HeapInuse) - int64(ms0.HeapInuse)
	for c, rs := range per {
		w.recs = append(w.recs, rs...)
		w.calibration = append(w.calibration, cal[c]...)
	}
	sort.Slice(w.recs, func(i, j int) bool { return w.recs[i].n < w.recs[j].n })
	w.end = w.start
	for _, r := range w.recs {
		if r.end.After(w.end) {
			w.end = r.end
		}
	}
	return w
}

// check counts failed ops, fills the digest's missing items, runs the
// workload's output checks, and computes the output digest.
func (o *outcome) check(ctx context.Context, s session, w *window) error {
	failed := map[int]bool{}
	outs := map[int][]byte{}
	for i, r := range w.recs {
		switch prev, seen := outs[r.item]; {
		case r.err != nil:
			failed[i] = true
			o.failures = append(o.failures, fmt.Sprintf("op %d: %v", r.n, r.err))
		case !seen:
			outs[r.item] = r.out
		case !bytes.Equal(prev, r.out):
			failed[i] = true
			o.failures = append(o.failures, fmt.Sprintf("op %d: plan item %d gave a different output than its first run", r.n, r.item))
		}
	}
	for item := 0; item < s.digestItems(); item++ {
		if _, ok := outs[item]; ok {
			continue
		}
		b, err := s.reference(ctx, item)
		if err != nil {
			return fmt.Errorf("reference output of plan item %d: %w", item, err)
		}
		outs[item] = b
	}
	bad, errs := s.verify(ctx, w.recs, outs)
	for _, i := range bad {
		if !failed[i] {
			failed[i] = true
			o.failures = append(o.failures, fmt.Sprintf("op %d: output check failed", w.recs[i].n))
		}
	}
	for _, err := range errs {
		o.failures = append(o.failures, err.Error())
	}
	o.failed = len(failed)
	o.digest = digest(outs, s.digestItems())
	return nil
}

// digest hashes the outputs of plan items [0, n) in order, each framed by
// its index and length.
func digest(outs map[int][]byte, n int) string {
	h := sha256.New()
	var hdr [16]byte
	for item := 0; item < n; item++ {
		binary.BigEndian.PutUint64(hdr[:8], uint64(item))
		binary.BigEndian.PutUint64(hdr[8:], uint64(len(outs[item])))
		h.Write(hdr[:])
		h.Write(outs[item])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// liveHeap is the live heap the last garbage collection measured.
func liveHeap() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

// atomicMax keeps the largest value it was given.
type atomicMax struct{ atomic.Uint64 }

func (m *atomicMax) max(v uint64) {
	for {
		old := m.Load()
		if v <= old || m.CompareAndSwap(old, v) {
			return
		}
	}
}
