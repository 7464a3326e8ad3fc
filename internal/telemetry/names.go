package telemetry

import "strings"

// Canonical series names shared by the instrumented packages and the
// exporter consumers. Instrumentation must register through these
// constants so docs/observability.md stays the single naming authority.
const (
	// Cache hierarchy (labelled with level="l1"|"l2"|"l3").
	MetricCacheHits       = "hifi_cache_hits_total"
	MetricCacheMisses     = "hifi_cache_misses_total"
	MetricCacheEvictions  = "hifi_cache_evictions_total"
	MetricCacheWritebacks = "hifi_cache_writebacks_total"

	// Racetrack array shift behaviour.
	MetricShiftOps        = "hifi_shift_ops_total"
	MetricShiftSteps      = "hifi_shift_steps_total"
	MetricShiftCycles     = "hifi_shift_cycles_total"
	MetricShiftZero       = "hifi_shift_zero_accesses_total"
	MetricShiftDistance   = "hifi_shift_distance_steps"
	MetricShiftOpLatency  = "hifi_shift_op_cycles"
	MetricShiftOpInterval = "hifi_shift_op_interval_steps"

	// Protection stack: p-ECC verifies and the analytic
	// expected-failure accumulators driving MTTF.
	MetricPECCChecks          = "hifi_pecc_checks_total"
	MetricExpectedCorrections = "hifi_expected_corrections_total"
	MetricExpectedSDC         = "hifi_expected_sdc_total"
	MetricExpectedDUE         = "hifi_expected_due_total"

	// Shift architecture (planner / adapter).
	MetricAdapterStalls = "hifi_adapter_stall_sequences_total"

	// Promotion buffer.
	MetricPromoHits    = "hifi_promo_hits_total"
	MetricPromoMisses  = "hifi_promo_misses_total"
	MetricPromoFlushes = "hifi_promo_flushes_total"

	// DRAM behind the LLC.
	MetricDRAMFills      = "hifi_dram_fills_total"
	MetricDRAMWritebacks = "hifi_dram_writebacks_total"

	// Parallel experiment engine (internal/engine): job lifecycle
	// counters and live pool gauges. See docs/engine.md.
	MetricEngineJobs      = "hifi_engine_jobs_total"
	MetricEngineExecuted  = "hifi_engine_jobs_executed_total"
	MetricEngineCacheHits = "hifi_engine_cache_hits_total"
	MetricEngineCacheMiss = "hifi_engine_cache_misses_total"
	MetricEngineFailures  = "hifi_engine_failures_total"
	MetricEngineQueueLen  = "hifi_engine_queue_depth"
	MetricEngineBusy      = "hifi_engine_workers_busy"
	MetricEngineJobMS     = "hifi_engine_job_ms"
	// Robustness counter: corrupt cache objects quarantined on read.
	// See docs/engine.md ("failure modes").
	MetricEngineCacheCorrupt = "hifi_engine_cache_corrupt_total"
	// Cache lifecycle under a -cache-max-bytes budget: bucket files
	// evicted access-ordered, and the accounted size of the bucket
	// files. See docs/engine.md ("cache size budgets & eviction").
	MetricEngineCacheEvictions = "hifi_engine_cache_evictions_total"
	MetricEngineCacheBytes     = "hifi_engine_cache_bytes"
	// Per-job resource accounting: process CPU, allocation, and GC work
	// attributed to executed jobs (approximate under parallel workers —
	// the counters are process-global). See docs/perf.md.
	MetricEngineJobCPUMS      = "hifi_engine_job_cpu_ms_total"
	MetricEngineJobAllocBytes = "hifi_engine_job_alloc_bytes_total"
	MetricEngineJobMallocs    = "hifi_engine_job_mallocs_total"
	MetricEngineJobGCCycles   = "hifi_engine_job_gc_cycles_total"

	// Fault injection (internal/faults): operations executed under an
	// active (non-identity) modulation and outcomes forced by a stuck
	// fault. See docs/faults.md.
	MetricFaultsActiveOps = "hifi_faults_active_ops_total"
	MetricFaultsForced    = "hifi_faults_forced_total"

	// Sweep daemon (internal/serve, cmd/hifi-serve): the multi-tenant
	// job API's admission and lifecycle ledger. See docs/serve.md.
	MetricServeSubmitted     = "hifi_serve_jobs_submitted_total"
	MetricServeDeduped       = "hifi_serve_jobs_deduped_total"
	MetricServeRejectedQueue = "hifi_serve_rejected_queue_total"
	MetricServeRejectedQuota = "hifi_serve_rejected_quota_total"
	MetricServeCompleted     = "hifi_serve_jobs_completed_total"
	MetricServeFailed        = "hifi_serve_jobs_failed_total"
	MetricServeCanceled      = "hifi_serve_jobs_canceled_total"
	MetricServeQueueDepth    = "hifi_serve_queue_depth"
	MetricServeRunning       = "hifi_serve_jobs_running"

	// Crash-safe job index (internal/serve/index.go): the append-only
	// hifi_serve_index_v1 WAL's write/replay/compaction ledger. See
	// docs/serve.md ("Restart recovery & the job index").
	MetricServeIndexRecords     = "hifi_serve_index_records_total"
	MetricServeIndexWriteErrors = "hifi_serve_index_write_errors_total"
	MetricServeIndexReplayed    = "hifi_serve_index_replayed_total"
	MetricServeIndexSkipped     = "hifi_serve_index_skipped_total"
	MetricServeIndexCompactions = "hifi_serve_index_compactions_total"

	// HTTP request plane (internal/serve middleware): per-route RED
	// metrics — request counters labelled {route,code}, error counters
	// labelled {route}, and a latency histogram labelled {route}. See
	// docs/serve.md ("Access log and request metrics").
	MetricServeHTTPRequests = "hifi_serve_http_requests_total"
	MetricServeHTTPErrors   = "hifi_serve_http_errors_total"
	MetricServeHTTPLatency  = "hifi_serve_http_request_ms"

	// SLO plane (internal/telemetry/slo): windowed good/bad counters
	// labelled {slo} and burn-rate gauges labelled {slo,window},
	// refreshed on every /slo evaluation. See docs/serve.md ("SLOs").
	MetricSLOGood     = "hifi_slo_good_total"
	MetricSLOBad      = "hifi_slo_bad_total"
	MetricSLOBurnRate = "hifi_slo_burn_rate"

	// Run progress (gauges, readable while a run is in flight).
	MetricSimAccessesDone  = "hifi_sim_accesses_done"
	MetricSimAccessesTotal = "hifi_sim_accesses_total"
	// MetricSimPhase is 0 during cache warmup and 1 once measurement
	// starts (always 1 for runs without a warmup phase).
	MetricSimPhase = "hifi_sim_phase"
	// MetricSimWarmupAccesses counts accesses consumed by the warmup
	// phase (excluded from the Result statistics).
	MetricSimWarmupAccesses = "hifi_sim_warmup_accesses_total"
)

// HostMeasured reports whether the series named name (labels ignored)
// is measured on the host rather than counted by the model: the engine's
// wall time, process CPU, allocation and GC work over executed jobs.
// Two runs of one binary differ in these, so the access-clock sampler
// leaves them out of its windows; /metrics and snapshots keep them.
func HostMeasured(name string) bool {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	switch name {
	case MetricEngineJobMS, MetricEngineJobCPUMS, MetricEngineJobAllocBytes,
		MetricEngineJobMallocs, MetricEngineJobGCCycles:
		return true
	}
	return false
}
