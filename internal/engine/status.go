package engine

// Live status for the /engine route on the CLIs' status mux: a JSON
// snapshot of the pool and the sweep-wide job ledger, readable while a
// sweep is in flight.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"racetrack/hifi/internal/telemetry/log"
)

// RunningJob is one in-flight job as exposed by Status.
type RunningJob struct {
	Label     string `json:"label"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Worker    int    `json:"worker"`
}

// Status is a point-in-time snapshot of the engine.
type Status struct {
	Workers   int          `json:"workers"`
	Queued    int64        `json:"queued"`
	Running   []RunningJob `json:"running,omitempty"`
	Jobs      uint64       `json:"jobs"`
	Executed  uint64       `json:"executed"`
	CacheHits uint64       `json:"cache_hits"`
	Failures  uint64       `json:"failures"`
	Corrupt   uint64       `json:"corrupt"`
}

// Status snapshots the engine's counters and in-flight jobs.
func (e *Engine) Status() Status {
	s := Status{
		Workers:   e.opts.Workers,
		Queued:    e.queued.Load(),
		Jobs:      e.total.Load(),
		Executed:  e.executed.Load(),
		CacheHits: e.hits.Load(),
		Failures:  e.failures.Load(),
		Corrupt:   e.corrupt.Load(),
	}
	now := time.Now()
	e.mu.Lock()
	for slot, rj := range e.inFlite {
		s.Running = append(s.Running, RunningJob{
			Label:     rj.Label,
			ElapsedMS: now.Sub(rj.Since).Milliseconds(),
			Worker:    slot,
		})
	}
	e.mu.Unlock()
	sort.Slice(s.Running, func(i, j int) bool { return s.Running[i].Worker < s.Running[j].Worker })
	return s
}

// ResourceSummary aggregates the per-job resource accounts over the
// engine's lifetime: what the sweep's executed jobs cost in wall, CPU,
// allocation, and GC work, plus the single most expensive job by wall
// time. Cache hits contribute to Jobs/CacheHits but to no resource
// total — a warm sweep's summary shows exactly the work the cache saved.
type ResourceSummary struct {
	Jobs         uint64 `json:"jobs"`
	Executed     uint64 `json:"executed"`
	CacheHits    uint64 `json:"cache_hits"`
	JobWallMS    int64  `json:"job_wall_ms_total"`
	JobCPUMS     int64  `json:"job_cpu_ms_total"`
	AllocBytes   uint64 `json:"job_alloc_bytes_total"`
	Mallocs      uint64 `json:"job_mallocs_total"`
	GCCycles     uint64 `json:"job_gc_cycles_total"`
	MaxJobWallMS int64  `json:"max_job_wall_ms"`
	MaxJobLabel  string `json:"max_job_label,omitempty"`
}

// Resources snapshots the per-job resource totals.
func (e *Engine) Resources() ResourceSummary {
	rs := ResourceSummary{
		Jobs:       e.total.Load(),
		Executed:   e.executed.Load(),
		CacheHits:  e.hits.Load(),
		JobWallMS:  e.jobWallMS.Load(),
		JobCPUMS:   e.jobCPUMS.Load(),
		AllocBytes: e.allocBytes.Load(),
		Mallocs:    e.mallocs.Load(),
		GCCycles:   e.gcCycles.Load(),
	}
	e.mu.Lock()
	rs.MaxJobWallMS = e.maxJobWallMS
	rs.MaxJobLabel = e.maxJobLabel
	e.mu.Unlock()
	return rs
}

// StatusHandler serves the Status snapshot as indented JSON. Headers
// match the status-mux contract: explicit charset, never cached.
func (e *Engine) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(e.Status()); err != nil {
			log.Debugf("engine: /engine write: %v", err)
		}
	})
}

// Summary renders the one-line sweep ledger the CLIs log at exit (and
// that CI greps to assert cache reuse — greps match a prefix, so new
// fields append at the end):
//
//	engine: 84 jobs, 0 executed, 84 cache hits, 0 failures, 0 corrupt
func (e *Engine) Summary() string {
	s := e.Status()
	return fmt.Sprintf("engine: %d jobs, %d executed, %d cache hits, %d failures, %d corrupt",
		s.Jobs, s.Executed, s.CacheHits, s.Failures, s.Corrupt)
}
