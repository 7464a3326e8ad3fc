// Command hifi-watch renders a live terminal dashboard from the
// structured event stream (hifi_events_v1): sweep progress, per-worker
// utilization, cache hit rate, open fault windows, panic and failure
// counts, and an ETA. It consumes the SSE /events route of a running
// hifi-* process (started with -pprof), an NDJSON event log written
// with -events-out, or — in client mode — one job's stream on a
// hifi-serve daemon.
//
// Usage:
//
//	hifi-watch http://localhost:6060/events     # live, attached to a run
//	hifi-watch events.ndjson                    # live, tailing a log file
//	hifi-watch -once events.ndjson              # one frame, then exit
//	hifi-watch -server http://localhost:8777 -job j0001   # follow a serve job
//
// In client mode the dashboard follows the job until its terminal
// event; if the server's SSE replay ring has already dropped events
// (detected by a sequence-number gap), it falls back to polling
// GET /v1/jobs/{id} and says so in the frame. When the source is a
// hifi-serve daemon (client mode, or its /events URL), the dashboard
// also polls GET /slo and renders the burn-rate panel. In live mode
// the screen redraws every -interval; -once renders a single frame and
// exits 0, which is what CI's smoke jobs use. An -interval that is not
// positive exits 2 with a message naming it. See docs/events.md and
// docs/serve.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"racetrack/hifi/internal/cliutil"
	"racetrack/hifi/internal/serve"
	"racetrack/hifi/internal/telemetry/events"
	"racetrack/hifi/internal/telemetry/log"
	"racetrack/hifi/internal/telemetry/slo"
	"racetrack/hifi/internal/watch"
)

func main() {
	var (
		once     = flag.Bool("once", false, "render one frame and exit (CI / snapshot mode)")
		interval = flag.Duration("interval", time.Second, "live-mode redraw period (and the -once collection window for SSE sources)")
		server   = flag.String("server", "", "hifi-serve base URL for client mode (use with -job)")
		jobID    = flag.String("job", "", "job ID on -server to follow")
	)
	logLevel := cliutil.AddLogLevel(flag.CommandLine)
	flag.Parse()
	logLevel.Apply()
	if err := checkInterval(*interval); err != nil {
		log.Errorf("hifi-watch: %v", err)
		os.Exit(2)
	}
	jobMode := *server != "" || *jobID != ""
	if jobMode && (*server == "" || *jobID == "") {
		log.Errorf("hifi-watch: -server and -job go together")
		os.Exit(2)
	}
	if jobMode != (flag.NArg() == 0) {
		log.Errorf("hifi-watch: need exactly one source: an /events URL, an NDJSON file, or -server/-job")
		os.Exit(2)
	}

	ctx, stop := cliutil.SignalContext(context.Background(), "hifi-watch")
	defer stop()

	var mu sync.Mutex
	m := watch.NewModel()
	apply := func(e events.Event) { mu.Lock(); m.Apply(e); mu.Unlock() }
	applyStatus := func(st serve.JobStatus) { mu.Lock(); m.ApplyStatus(st); mu.Unlock() }
	applySLO := func(rep slo.Report) { mu.Lock(); m.ApplySLO(rep); mu.Unlock() }

	// The SLO panel rides along whenever the source is a hifi-serve
	// daemon: client mode knows the base URL outright, and a daemon
	// /events URL yields one. Other sources (files, per-run SSE routes)
	// have no /slo and no panel.
	sloServer := *server
	if !jobMode && flag.NArg() == 1 {
		if base, ok := watch.ServerFromEventsURL(flag.Arg(0)); ok {
			sloServer = base
		}
	}

	// followJob streams the job and degrades to polling on a replay gap.
	followJob := func(fctx context.Context) error {
		err := watch.FollowJob(fctx, *server, *jobID, apply)
		if errors.Is(err, watch.ErrReplayGap) {
			log.Infof("hifi-watch: %v", err)
			err = watch.PollJob(fctx, *server, *jobID, *interval, applyStatus)
		}
		return err
	}

	switch {
	case *once && !jobMode && !watch.IsURL(flag.Arg(0)):
		if err := watch.ReadFileInto(m, flag.Arg(0)); err != nil {
			log.Fatalf("hifi-watch: %v", err)
		}
		fmt.Print(m.Render())

	case *once:
		// Collect one interval's worth of replay + live events (less if
		// the job finishes first), then render a single frame.
		cctx, cancel := context.WithTimeout(ctx, *interval)
		if sloServer != "" {
			if rep, err := watch.FetchSLO(cctx, sloServer); err == nil {
				applySLO(rep)
			}
		}
		if jobMode {
			_ = followJob(cctx)
		} else {
			_ = watch.FollowSSE(cctx, flag.Arg(0), apply)
		}
		cancel()
		mu.Lock()
		fmt.Print(m.Render())
		mu.Unlock()

	default:
		if sloServer != "" {
			go watch.PollSLO(ctx, sloServer, *interval, applySLO)
		}
		errc := make(chan error, 1)
		go func() {
			switch {
			case jobMode:
				errc <- followJob(ctx)
			case watch.IsURL(flag.Arg(0)):
				errc <- watch.FollowSSE(ctx, flag.Arg(0), apply)
			default:
				errc <- watch.TailFile(ctx, flag.Arg(0),
					func(h events.Header) { mu.Lock(); m.SetTool(h.Tool); mu.Unlock() },
					apply)
			}
		}()
		tick := time.NewTicker(*interval)
		defer tick.Stop()
		frame := func() {
			mu.Lock()
			f := m.Render()
			mu.Unlock()
			// Home the cursor and clear below, so short frames do not
			// leave stale lines behind.
			fmt.Print("\x1b[H\x1b[2J" + f)
		}
		for {
			frame()
			select {
			case <-ctx.Done():
				fmt.Println()
				return
			case err := <-errc:
				// Render what arrived since the last tick (the terminal
				// event, usually) before exiting.
				frame()
				if err != nil && ctx.Err() == nil {
					log.Fatalf("hifi-watch: %v", err)
				}
				fmt.Println()
				return
			case <-tick.C:
			}
		}
	}
}

// checkInterval rejects a redraw period time.NewTicker cannot take.
func checkInterval(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("-interval must be positive, got %v", d)
	}
	return nil
}
