package memsim

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"racetrack/hifi/internal/energy"
	"racetrack/hifi/internal/engine"
	"racetrack/hifi/internal/shiftctrl"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/trace"
)

// countingSource numbers its accesses: the n-th call yields line n of the
// core's own region. It panics with panicValue on call panicAt (0 never),
// and with a message on any call past limit.
type countingSource struct {
	core, limit, panicAt, n int
	panicValue              any
}

func (c *countingSource) Next() trace.Access {
	c.n++
	if c.n == c.panicAt {
		panic(c.panicValue)
	}
	if c.n > c.limit {
		panic(fmt.Sprintf("core %d: call %d past the %d accesses of a run", c.core, c.n, c.limit))
	}
	return trace.Access{Addr: countedAddr(c.core, c.n), Write: c.n%3 == 0, Gap: c.n % 7}
}

func countedAddr(core, n int) uint64 { return uint64(core)<<24 | uint64(n)*trace.LineBytes }

// countingSources returns a counting source per core, also as the
// Config.Sources list that runs them.
func countingSources(cores, accesses int) ([]*countingSource, []Source) {
	srcs := make([]*countingSource, cores)
	list := make([]Source, cores)
	for i := range srcs {
		srcs[i] = &countingSource{core: i, limit: accesses}
		list[i] = srcs[i]
	}
	return srcs, list
}

// The feed draws each core's source exactly AccessesPerCore times, and
// each core's accesses reach the loop in the order its source yielded
// them, however the loop interleaves the cores. Counts that fill no
// whole chunk, or leave one short, are included.
func TestFeedDrawsEachSourceExactly(t *testing.T) {
	w := smallWorkload("vips", 64<<10)
	for _, accesses := range []int{1000, 257} {
		for _, warmup := range []int{0, accesses / 4} {
			name := fmt.Sprintf("accesses=%d/warmup=%d", accesses, warmup)
			cfg := smallConfig(energy.Racetrack, shiftctrl.PECCSAdaptive)
			cfg.AccessesPerCore = accesses
			cfg.WarmupAccessesPerCore = warmup
			var srcs []*countingSource
			srcs, cfg.Sources = countingSources(cfg.Cores, accesses)
			if _, err := Run(w, cfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, c := range srcs {
				if c.n != accesses {
					t.Errorf("%s: core %d drawn %d times, want %d", name, c.core, c.n, accesses)
				}
			}
		}

		// The loop's side, read in a scrambled core order.
		cfg := smallConfig(energy.SRAM, shiftctrl.Baseline)
		cfg.AccessesPerCore = accesses
		srcs, list := countingSources(cfg.Cores, accesses)
		cfg.Sources = list
		var f feed
		f.start(w, cfg)
		read := make([]int, cfg.Cores)
		for x := uint64(1); ; {
			core := -1
			for i := range read {
				if c := (int(x>>33) + i) % cfg.Cores; read[c] < accesses {
					core = c
					break
				}
			}
			if core < 0 {
				break
			}
			x = x*6364136223846793005 + 1442695040888963407
			read[core]++
			if a, want := f.next(core), countedAddr(core, read[core]); a.Addr != want {
				f.stop()
				t.Fatalf("accesses=%d: core %d's access %d has address %#x, want %#x",
					accesses, core, read[core], a.Addr, want)
			}
		}
		f.stop()
		for _, c := range srcs {
			if c.n != accesses {
				t.Errorf("accesses=%d: core %d drawn %d times after the loop read them all", accesses, c.core, c.n)
			}
		}
	}
}

// sourcePanic is the value a source panics with at its 300th access.
type sourcePanic struct{ core int }

func panickingConfig() (trace.Workload, Config, any) {
	cfg := smallConfig(energy.Racetrack, shiftctrl.SECDED)
	var srcs []*countingSource
	srcs, cfg.Sources = countingSources(cfg.Cores, cfg.AccessesPerCore)
	value := &sourcePanic{core: 2}
	srcs[2].panicAt, srcs[2].panicValue = 300, value
	return smallWorkload("vips", 64<<10), cfg, value
}

// A source's panic happens on the feed's goroutine, but RunCtx re-raises
// it on its caller's, so an engine job running the simulation fails as a
// job panic instead of crashing the process.
func TestFeedSourcePanicReachesCaller(t *testing.T) {
	w, cfg, value := panickingConfig()
	func() {
		defer func() {
			if r := recover(); r != value {
				t.Errorf("RunCtx panicked with %v, want the source's %v", r, value)
			}
		}()
		_, _ = RunCtx(context.Background(), w, cfg)
		t.Error("RunCtx returned despite a panicking source")
	}()

	w, cfg, value = panickingConfig()
	bus := events.New(64)
	job := engine.Job{Key: "panicking-source", Label: "panicking-source",
		Fn: func(ctx context.Context) (any, error) { return RunCtx(ctx, w, cfg) }}
	if _, err := engine.New(engine.Options{Workers: 1, Events: bus}).Run(context.Background(), []engine.Job{job}); err == nil {
		t.Fatal("the engine reported no failure for a panicking source")
	}
	evs, _ := bus.Since(0, nil)
	panics := 0
	for _, e := range evs {
		if e.Type == events.JobPanic {
			panics++
			if e.Detail != fmt.Sprint(value) {
				t.Errorf("job panic detail %q, want %q", e.Detail, fmt.Sprint(value))
			}
		}
	}
	if panics != 1 {
		t.Errorf("%d job panic events, want 1", panics)
	}
}

// No goroutine of a run outlives it, whether the run finishes or a
// source panics.
func TestFeedStopsWithRun(t *testing.T) {
	settled := func(what string, baseline int) {
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Errorf("%s: %d goroutines a second after RunCtx returned, %d before it", what,
					runtime.NumGoroutine(), baseline)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	baseline := runtime.NumGoroutine()
	if _, err := Run(smallWorkload("ferret", 64<<10), smallConfig(energy.SRAM, shiftctrl.Baseline)); err != nil {
		t.Fatal(err)
	}
	settled("finished run", baseline)

	w, cfg, _ := panickingConfig()
	baseline = runtime.NumGoroutine()
	func() {
		defer func() { _ = recover() }()
		_, _ = Run(w, cfg)
	}()
	settled("run with a panicking source", baseline)
}
