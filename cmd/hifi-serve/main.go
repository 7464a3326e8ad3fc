// Command hifi-serve is the multi-tenant sweep daemon: a long-running
// HTTP/JSON service that accepts experiment sweep specs, runs them on
// the parallel engine over one shared content-addressed result cache,
// and streams per-job lifecycle events over SSE.
//
//	hifi-serve -listen localhost:8777
//	curl -s -X POST localhost:8777/v1/jobs -d '{"run":["table3"],"scaled":true}'
//	curl -N localhost:8777/v1/jobs/j0001/events
//	hifi-watch -server http://localhost:8777 -job j0001
//
// Identical specs dedup across clients: a spec equal to one already
// queued or running coalesces onto that job, and a spec resubmitted
// after completion re-runs through the shared cache and executes
// nothing. Admission control is a bounded queue (429 + Retry-After)
// plus optional per-client token buckets (-rate/-burst, keyed by
// Authorization: Bearer / X-API-Key / remote address). On SIGINT or
// SIGTERM the daemon drains: it stops admitting and lets running jobs
// finish (bounded by -drain-timeout). Jobs still queued, and jobs the
// deadline interrupts, stay queued in the crash-safe job index, which
// -resume replays, as it does after a kill -9. See docs/serve.md.
//
// A flag value the daemon cannot use (a negative count or size, a
// -rate that is negative or not finite) exits 2 with a message naming
// the flag, before anything listens.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"time"

	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/serve"
	"racetrack/hifi/internal/telemetry/log"
)

func main() {
	var (
		listen       = flag.String("listen", "localhost:8777", "HTTP listen address for the job API")
		cacheDir     = flag.String("cache-dir", ".hifi-serve-cache", "shared result-cache directory (\"\" disables caching and cross-client reuse)")
		cacheMax     = flag.Int64("cache-max-bytes", 0, "result-cache size budget; least-recently-accessed cache buckets are evicted above it (0 = unlimited)")
		version      = flag.String("cache-version", "", "override the cache code-version tag (default: built-in engine version)")
		workers      = flag.Int("workers", 0, "engine worker-pool width per job (0 = all cores)")
		runners      = flag.Int("runners", 2, "jobs allowed to run concurrently")
		queueCap     = flag.Int("queue", 16, "jobs accepted but not yet running before submissions get 429")
		rate         = flag.Float64("rate", 0, "per-client submissions per second (0 disables quotas)")
		burst        = flag.Int("burst", 4, "per-client token-bucket size")
		requireToken = flag.Bool("require-token", false, "reject submissions without Authorization: Bearer or X-API-Key")
		maxAccesses  = flag.Int("max-accesses", 0, "reject specs asking for more than this many accesses per core (0 = unbounded)")
		resume       = flag.Bool("resume", false, "recover jobs from the crash-safe job index before serving (completed jobs restored; jobs a crash or drain interrupted re-queued under their original IDs)")
		drainTO      = flag.Duration("drain-timeout", time.Minute, "how long a shutdown waits for running jobs before canceling them")
		accessLog    = flag.String("access-log", "-", "hifi_access_v1 NDJSON access-log destination: \"-\" = stderr, \"\" disables, else a file path (appended)")
		traceSeed    = flag.Uint64("trace-seed", 0, "seed for minted trace IDs (0 = unpredictable; fixed seeds make correlation IDs reproducible)")
	)
	obs := cliutil.NewDaemonObs("hifi-serve")
	obs.EnableMetrics() // /metrics must work without -metrics-out
	obs.EnableEvents()  // /events and per-job SSE need the bus
	flag.Parse()
	opts := serve.Options{
		Workers:       *workers,
		CacheDir:      *cacheDir,
		CacheMaxBytes: *cacheMax,
		Version:       *version,
		Runners:       *runners,
		Queue:         *queueCap,
		Rate:          *rate,
		Burst:         *burst,
		RequireToken:  *requireToken,
		MaxAccesses:   *maxAccesses,
		TraceSeed:     *traceSeed,
	}
	if err := checkOptions(opts); err != nil {
		log.Errorf("hifi-serve: %v", err)
		os.Exit(2)
	}
	_ = obs.Start()

	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("hifi-serve: -access-log: %v", err)
		}
		defer func() { _ = f.Close() }()
		accessW = f
	}

	opts.Metrics, opts.Events, opts.AccessLog = obs.Reg, obs.Events, accessW
	srv := serve.New(opts)
	if *resume {
		if n := srv.Resume(); n > 0 {
			log.Infof("hifi-serve: %d recovered job(s) re-queued for execution", n)
		}
	}

	httpSrv := &http.Server{Addr: *listen, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Infof("hifi-serve: job API on http://%s/v1/jobs (cache %q, %d runner(s), queue %d)",
		*listen, *cacheDir, *runners, *queueCap)

	ctx, stop := cliutil.SignalContext(context.Background(), "hifi-serve")
	defer stop()
	select {
	case err := <-errc:
		log.Fatalf("hifi-serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting first (new submissions get 503
	// while in-flight jobs finish), then close the HTTP server outright
	// — SSE streams never go idle, so a polite Shutdown would always
	// ride out the full timeout.
	shCtx, shCancel := context.WithTimeout(context.Background(), *drainTO)
	defer shCancel()
	left, err := srv.Drain(shCtx)
	if err != nil {
		log.Errorf("hifi-serve: drain: %v", err)
	}
	if err := httpSrv.Close(); err != nil {
		log.Errorf("hifi-serve: http close: %v", err)
	}
	if left > 0 && err == nil {
		log.Infof("hifi-serve: %d job(s) left queued in the job index; restart with -resume to run them", left)
	}
	if err := obs.Finish(); err != nil {
		log.Fatalf("hifi-serve: %v", err)
	}
}

// checkOptions rejects the flag values serve.New would quietly replace
// with a default, and a -rate whose token buckets could not refill.
func checkOptions(o serve.Options) error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("-workers must be >= 0 (0 = all cores), got %d", o.Workers)
	case o.Runners < 1:
		return fmt.Errorf("-runners must be at least 1, got %d", o.Runners)
	case o.Queue < 1:
		return fmt.Errorf("-queue must be at least 1, got %d", o.Queue)
	case !(o.Rate >= 0) || math.IsInf(o.Rate, 1):
		return fmt.Errorf("-rate must be a finite number >= 0 (0 disables quotas), got %g", o.Rate)
	case o.Burst < 1:
		return fmt.Errorf("-burst must be at least 1, got %d", o.Burst)
	case o.MaxAccesses < 0:
		return fmt.Errorf("-max-accesses must be >= 0 (0 = unbounded), got %d", o.MaxAccesses)
	case o.CacheMaxBytes < 0:
		return fmt.Errorf("-cache-max-bytes must be >= 0 (0 = unlimited), got %d", o.CacheMaxBytes)
	}
	return nil
}
