package serve

// The daemon's declarative SLOs. Targets are deliberately modest — this
// is a research daemon, not a product — but the mechanics (windowed
// good/bad counters, burn-rate gauges, the /slo report) are the real
// multi-window multi-burn-rate scheme from the SRE workbook, so the
// numbers are directly alertable.

import (
	"time"

	"racetrack/hifi/internal/telemetry/slo"
)

// Objective names, shared by the recorders (middleware, finalize) and
// the defaults below.
const (
	// sloAvailability: fraction of HTTP responses that are not 5xx.
	sloAvailability = "availability"
	// sloSubmitLatency: fraction of accepted submissions whose handler
	// round-trip — which includes putting the accepted event on the
	// job's SSE bus — lands under the threshold.
	sloSubmitLatency = "submit_latency"
	// sloJobCompletion: fraction of finished jobs that completed
	// successfully within the threshold. Failures are bad; client or
	// drain cancellations are nobody's breach and are not observed.
	sloJobCompletion = "job_completion"
	// sloIndexDurability: fraction of job-index WAL appends that reached
	// disk. A burn here means job state is no longer crash-safe (the
	// daemon keeps serving from memory — see "graceful degradation" in
	// docs/serve.md).
	sloIndexDurability = "index_durability"
)

// defaultObjectives is the served SLO set: availability,
// submit_latency, job_completion and index_durability.
func defaultObjectives() []slo.Objective {
	return []slo.Objective{
		{
			Name:   sloAvailability,
			Help:   "non-5xx fraction of all HTTP responses",
			Target: 0.999,
		},
		{
			Name:      sloSubmitLatency,
			Help:      "accepted submissions answered (first SSE event queued) within 1s",
			Target:    0.99,
			LatencyMS: 1000,
		},
		{
			Name:      sloJobCompletion,
			Help:      "jobs that finish successfully within 5 minutes of starting",
			Target:    0.95,
			LatencyMS: (5 * time.Minute).Milliseconds(),
		},
		{
			Name:   sloIndexDurability,
			Help:   "job-index WAL appends that reached disk (crash-safety of job state)",
			Target: 0.999,
		},
	}
}

// SLOReport evaluates the daemon's objectives as of now, refreshing the
// hifi_slo_* gauges — the GET /slo body and the hifi-watch SLO panel's
// source.
func (s *Server) SLOReport() slo.Report { return s.slo.Evaluate() }
