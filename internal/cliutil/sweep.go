package cliutil

// The sweep path of hifi-experiments, hifi-report and hifi-chaos: the
// spec checks and the loop hifi-serve's jobs go through as well.

import (
	"context"
	"os"
	"path/filepath"
	"time"

	"racetrack/hifi/internal/experiments"
	"racetrack/hifi/internal/telemetry/log"
)

// CheckSpec normalizes the sweep a CLI's flags describe and returns it
// with its run options. An invalid spec exits 2 before anything runs,
// with the spec's own error: the text hifi-serve answers 400 with.
func CheckSpec(tool string, s experiments.Spec) (experiments.Spec, experiments.RunOpts) {
	n, err := s.Normalize()
	var opts experiments.RunOpts
	if err == nil {
		opts, err = n.RunOpts()
	}
	if err != nil {
		log.Errorf("%s: %v", tool, err)
		os.Exit(2)
	}
	return n, opts
}

// Sweep runs keys through experiments.Sweep with the CLI's bookkeeping:
// each experiment is logged, becomes the run's phase (the event stream
// and /healthz) and gets a span; emit, when set, receives each finished
// table.
func (o *Obs) Sweep(ctx context.Context, keys []string, opts experiments.RunOpts,
	emit func(i int, key string, t experiments.Table) error) (map[string]experiments.Table, error) {
	var start time.Time
	return experiments.Sweep(ctx, keys, opts, func(i int, k string) {
		log.Infof("running %s (%d/%d)", k, i+1, len(keys))
		o.Phase(k)
		start = time.Now()
	}, func(i int, k string, t experiments.Table) error {
		log.Infof("finished %s in %v", k, time.Since(start).Round(time.Millisecond))
		if emit == nil {
			return nil
		}
		return emit(i, k, t)
	})
}

// Abort ends a CLI whose sweep failed: it logs err, still writes the
// observability artifacts, and exits 130 when a signal cancelled ctx, 1
// otherwise.
func (o *Obs) Abort(ctx context.Context, err error) {
	log.Errorf("%s: %v", o.tool, err)
	if ferr := o.Finish(); ferr != nil {
		log.Errorf("%s: %v", o.tool, ferr)
	}
	if ctx.Err() != nil {
		os.Exit(130)
	}
	os.Exit(1)
}

// EmitTable writes the i-th table of a run the way the -out and -csv
// flags ask: into dir/name.csv when dir is set (and into the manifest),
// else to stdout as experiments.Render prints it.
func (o *Obs) EmitTable(dir, name string, i int, t experiments.Table, csv bool) error {
	if dir == "" {
		return experiments.Render(os.Stdout, i, t, csv)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name+".csv")
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		return err
	}
	o.AddOutput(path)
	log.Infof("wrote %s", path)
	return nil
}
