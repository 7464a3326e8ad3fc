# Verification tiers and convenience targets. Plain `make` runs tier-1.
#
#   make tier1           build + unit tests (the seed gate)
#   make ci              tier-1 plus vet, the race detector, the perfbench module, fuzzing and cli-smoke
#   make fuzz            10s of each fuzz target (the seeds alone run in tier-1)
#   make bench           full benchmark sweep (go test -bench)
#   make bench-snapshot  pinned hifi-bench suite -> BENCH_<utc-date>[_<n>].json
#   make bench-smoke     quick suite + self-compare (CI regression gate dry run)
#   make perf-smoke      profile capture + self-time export + trajectory check
#   make engine-smoke    parallel-sweep determinism + cache-reuse check
#   make watch-smoke     event stream end-to-end: -events-out log + hifi-watch -once
#   make serve-smoke     hifi-serve daemon end-to-end: submit, stream, drain
#   make serve-crash-smoke  kill -9 / SIGTERM mid-job, restart -resume, recovery checks
#   make cli-smoke       the analytic binaries (hifi-mttf, hifi-design, a hifi-trace round trip) and invalid flags
#   make chaos           fault-injection tests + seeded campaign + off==nominal
#   make fidelity        scaled sweep scored against the paper anchors
#   make report          render the evaluation report (scaled)

GO ?= go

.PHONY: all tier1 ci vet race fuzz test build bench bench-snapshot bench-smoke perf-smoke engine-smoke watch-smoke serve-smoke serve-crash-smoke cli-smoke chaos fidelity report fmt clean

all: tier1

tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# perfbench is a module of its own (perfbench/go.mod) that ./... never
# reaches; ci vets and tests it against this checkout.
ci: build vet race fuzz cli-smoke
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# vet runs go vet plus the repo's own checkers: errvet (no Close/Flush
# error silently dropped; no select on ctx.Done() returning nil without
# consulting ctx.Err()/context.Cause) and metriclint (every hifi_*
# series literal must match a constant in internal/telemetry/names.go,
# and every constant there must be used — names.go stays the single
# naming authority; see internal/tools/metriclint) and scheme_policy.sh
# (no scheme constant compared outside internal/shiftctrl, which owns
# every per-scheme decision).
vet:
	$(GO) vet ./...
	$(GO) run ./internal/tools/errvet .
	$(GO) run ./internal/tools/metriclint .
	bash scripts/scheme_policy.sh

# race also repeats the event-delivery tests ten times: Emit, the bus
# readers and the SSE handlers reach the ring's read path at once. The
# engine's decode-once tests repeat too: workers write memo entries while
# the batches running beside them decode those entries, on one engine
# and on engines sharing one cache's memo. So do the
# cache's shared-writer tests, where goroutines and two caches append to
# and read one bucket file while eviction removes buckets, and the
# sampler's concurrent-tick test, where an Export polls the open window
# while four goroutines tick and cut, and the simulation feed's tests,
# where a producer goroutine draws the access streams the loop reads.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 -run 'Subscrib|Stalled|SSE' ./internal/telemetry/events/
	$(GO) test -race -count=10 -run '^TestRunDecodedDecodesEachKeyOnce$$' ./internal/engine/
	$(GO) test -race -count=10 -run '^TestEnginesOverOneCacheDecodeEachKeyOnce$$' ./internal/engine/
	$(GO) test -race -count=10 -run '^(TestCacheConcurrentWriters|TestEvictionConcurrentWithPutsAndGets)$$' ./internal/engine/
	$(GO) test -race -count=10 -run '^TestConcurrentTicks$$' ./internal/telemetry/timeseries/
	$(GO) test -race -count=10 -run '^TestFeed' ./internal/memsim/

# fuzz runs each fuzz target for 10s beyond its seed corpus: the NDJSON
# replay rule behind the serve job index (engine.ReplayLines), the cache
# bucket reader, the job index replay itself, spec normalization, the binary trace reader, the
# event-log reader, the event encoder behind the SSE frames and NDJSON
# lines (against json.Marshal), the traceparent parser, the p-ECC
# decoder and the memsim fingerprint appender (against the reflective
# encoder it replaced). A failing input lands in the package's
# testdata/fuzz/ directory, where tier-1 then replays it.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReplayLines$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzCacheBucket$$' -fuzztime 10s ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzIndexReplay$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzSpecNormalize$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzReadLog$$' -fuzztime 10s ./internal/telemetry/events
	$(GO) test -run '^$$' -fuzz '^FuzzEventJSON$$' -fuzztime 10s ./internal/telemetry/events
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/telemetry/tracectx
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/pecc
	$(GO) test -run '^$$' -fuzz '^FuzzFingerprint$$' -fuzztime 10s ./internal/memsim

bench:
	$(GO) test -bench . -benchtime=1x -run '^$$' .

# bench-snapshot runs the pinned micro+macro suite (hifi-bench) and
# archives the ns/op + domain-rate snapshot for the performance
# trajectory. Snapshots are date-stamped (BENCH_<utc-date>.json; a later
# one on the same date takes BENCH_<utc-date>_2.json and so on, never
# replacing the first) so a sorted directory listing IS the trajectory;
# commit the file to extend it. Compare two with:
#   go run ./cmd/hifi-bench -compare BENCH_old.json BENCH_new.json
# and render the whole history with:
#   go run ./cmd/hifi-bench -trajectory BENCH_*.json
# HIFI_GIT_SHA backfills the manifest's git_sha: `go run` binaries carry
# no VCS build stamp, so without it committed snapshots say "unknown".
bench-snapshot:
	HIFI_GIT_SHA=$$(git rev-parse HEAD 2>/dev/null) $(GO) run ./cmd/hifi-bench

# bench-smoke is the CI shape: quick suite, then a self-compare to prove
# the gate machinery works (always passes; the regression gate proper runs
# against an archived baseline).
bench-smoke:
	$(GO) run ./cmd/hifi-bench -quick -out BENCH_smoke.json
	$(GO) run ./cmd/hifi-bench -compare BENCH_smoke.json BENCH_smoke.json

# perf-smoke is the local version of CI's perf job: a sweep with pprof
# capture and self-time export on, existence checks on every artifact,
# and a trajectory over the committed baseline(s) plus a fresh quick
# snapshot (docs/perf.md).
perf-smoke:
	rm -rf /tmp/hifi-perf && mkdir -p /tmp/hifi-perf
	$(GO) run ./cmd/hifi-experiments -run fig14 -scaled -accesses 1000 -q \
		-profile cpu,heap -profile-out /tmp/hifi-perf/run \
		-perf-out /tmp/hifi-perf/perf.json \
		-manifest-out /tmp/hifi-perf/run.manifest.json >/dev/null
	test -s /tmp/hifi-perf/run.cpu.pprof
	test -s /tmp/hifi-perf/run.heap.pprof
	grep -q hifi_perf_v1 /tmp/hifi-perf/perf.json
	grep -q cpu.pprof /tmp/hifi-perf/run.manifest.json
	$(GO) run ./cmd/hifi-bench -quick -q -out /tmp/hifi-perf/BENCH_now.json
	$(GO) run ./cmd/hifi-bench -trajectory -svg-out /tmp/hifi-perf/trend.svg \
		BENCH_*.json /tmp/hifi-perf/BENCH_now.json
	test -s /tmp/hifi-perf/trend.svg

# engine-smoke is the local version of CI's engine job: tables must be
# byte-identical at any -jobs (fig16, abl-promo and the chaos campaign
# included, whose simulations replay shared access streams), an
# interrupted sweep (here: one holding only fig10) finishes from its
# cache with the uncached tables, a repeated cached sweep must execute
# nothing and record no simulation metrics (abl-promo included), and a
# run without -cache-dir must compute each shared result once (see
# docs/engine.md).
engine-smoke:
	$(GO) run ./cmd/hifi-experiments -run fig10,fig14 -scaled -accesses 1000 -q -jobs 1 > /tmp/hifi-serial.txt
	$(GO) run ./cmd/hifi-experiments -run fig10,fig14 -scaled -accesses 1000 -q -jobs 8 > /tmp/hifi-parallel.txt
	diff -u /tmp/hifi-serial.txt /tmp/hifi-parallel.txt
	$(GO) run ./cmd/hifi-experiments -run fig16,abl-promo -scaled -accesses 1000 -q -jobs 1 > /tmp/hifi-streams-serial.txt
	$(GO) run ./cmd/hifi-experiments -run fig16,abl-promo -scaled -accesses 1000 -q -jobs 8 > /tmp/hifi-streams-parallel.txt
	diff -u /tmp/hifi-streams-serial.txt /tmp/hifi-streams-parallel.txt
	$(GO) run ./cmd/hifi-chaos -scaled -accesses 500 -intensities 0,2 -schemes baseline,adaptive -q -jobs 1 > /tmp/hifi-chaos-serial.txt
	$(GO) run ./cmd/hifi-chaos -scaled -accesses 500 -intensities 0,2 -schemes baseline,adaptive -q -jobs 8 > /tmp/hifi-chaos-parallel.txt
	diff -u /tmp/hifi-chaos-serial.txt /tmp/hifi-chaos-parallel.txt
	rm -rf /tmp/hifi-partial-cache
	$(GO) run ./cmd/hifi-experiments -run fig10 -scaled -accesses 1000 -q -jobs 8 -cache-dir /tmp/hifi-partial-cache >/dev/null
	$(GO) run ./cmd/hifi-experiments -run fig10,fig14 -scaled -accesses 1000 -jobs 8 -cache-dir /tmp/hifi-partial-cache \
		2>/tmp/hifi-partial.log >/tmp/hifi-partial.txt
	grep -E 'engine: 84 jobs, 36 executed, 48 cache hits' /tmp/hifi-partial.log
	diff -u /tmp/hifi-serial.txt /tmp/hifi-partial.txt
	rm -rf /tmp/hifi-engine-cache
	$(GO) run ./cmd/hifi-experiments -run fig14 -scaled -accesses 1000 -jobs 8 -cache-dir /tmp/hifi-engine-cache >/dev/null
	$(GO) run ./cmd/hifi-experiments -run fig14 -scaled -accesses 1000 -jobs 8 -cache-dir /tmp/hifi-engine-cache 2>&1 >/dev/null \
		| grep -E 'engine: [0-9]+ jobs, 0 executed, [1-9][0-9]* cache hits'
	$(GO) run ./cmd/hifi-experiments -run fig14,abl-promo -scaled -accesses 1000 -jobs 8 -cache-dir /tmp/hifi-engine-cache -q >/dev/null
	$(GO) run ./cmd/hifi-experiments -run fig14,abl-promo -scaled -accesses 1000 -jobs 8 -cache-dir /tmp/hifi-engine-cache \
		-metrics-out /tmp/hifi-engine-warm 2>&1 >/dev/null | grep -E 'engine: [0-9]+ jobs, 0 executed, [1-9][0-9]* cache hits'
	! grep -q '"hifi_shift_ops_total"' /tmp/hifi-engine-warm.json
	$(GO) run ./cmd/hifi-experiments -run fig10,fig14 -scaled -accesses 1000 -jobs 8 2>&1 >/dev/null \
		| grep -E 'engine: 84 jobs, 72 executed, 12 cache hits'

# watch-smoke is the local version of CI's events job (docs/events.md):
# a scaled sweep writes the NDJSON event log, the run/job lifecycle
# counts are asserted (one run.start/run.finish; every queued job
# reaches a terminal event), and hifi-watch renders a non-empty
# one-shot dashboard from the log.
watch-smoke:
	rm -rf /tmp/hifi-watch && mkdir -p /tmp/hifi-watch
	$(GO) run ./cmd/hifi-experiments -run fig14 -scaled -accesses 1000 -q -jobs 4 \
		-events-out /tmp/hifi-watch/events.ndjson >/dev/null
	head -1 /tmp/hifi-watch/events.ndjson | grep -q hifi_events_v1
	test "$$(grep -c '"type":"run.start"' /tmp/hifi-watch/events.ndjson)" = 1
	test "$$(grep -c '"type":"run.finish"' /tmp/hifi-watch/events.ndjson)" = 1
	q=$$(grep -c '"type":"job.queued"' /tmp/hifi-watch/events.ndjson); \
	d=$$(grep -cE '"type":"job\.(finished|cache_hit|failed)"' /tmp/hifi-watch/events.ndjson); \
	test "$$q" -ge 1 && test "$$q" = "$$d"
	$(GO) run ./cmd/hifi-watch -once /tmp/hifi-watch/events.ndjson > /tmp/hifi-watch/frame.txt
	grep -q 'hifi-experiments' /tmp/hifi-watch/frame.txt
	grep -q 'jobs' /tmp/hifi-watch/frame.txt

# serve-smoke is the local version of CI's serve job (docs/serve.md):
# boot a real hifi-serve daemon, submit a sweep over HTTP, follow it
# with hifi-watch's client mode, diff the served tables byte-for-byte
# against a direct hifi-experiments run, prove an identical
# resubmission executes zero new simulations (shared cache + metrics),
# and drain cleanly on SIGTERM. All the choreography lives in
# scripts/serve_smoke.sh.
serve-smoke:
	bash scripts/serve_smoke.sh

# serve-crash-smoke is the restart-recovery story (docs/serve.md,
# "Restart recovery & the job index"): boot a daemon, SIGKILL it mid-job,
# restart with -resume against the same cache dir, and assert the
# completed job's status and byte-identical tables survive (executed=0)
# while the interrupted job re-queues under its original id; then
# SIGTERM a daemon mid-job with a second job queued and require both to
# re-run under their original ids after -resume. The choreography lives
# in scripts/serve_crash_smoke.sh.
serve-crash-smoke:
	bash scripts/serve_crash_smoke.sh

# cli-smoke is the local version of CI's CLI smoke step: the analytic
# binaries no other target runs, each once at its defaults (hifi-trace
# records at its default length), hifi-mttf's adapter table (Table 3b),
# a hifi-trace record-then-inspect round trip, a 1000-access trace that
# must be 8013 bytes (a 13-byte header and 8 bytes a record), and invalid
# flags that must exit 2 before anything runs: hifi-trace must not write
# its file, hifi-serve (a bad -rate, or -spans-out, which the daemon does
# not take) must not start (nor make its cache dir), hifi-watch must not
# tick, hifi-bench must not read its snapshots, hifi-experiments must not
# sweep. Built, not run with
# `go run`, so exit codes are the binaries' own.
cli-smoke:
	rm -rf /tmp/hifi-cli && mkdir -p /tmp/hifi-cli
	$(GO) build -o /tmp/hifi-cli/ ./cmd/hifi-mttf ./cmd/hifi-design ./cmd/hifi-trace \
		./cmd/hifi-serve ./cmd/hifi-watch ./cmd/hifi-bench ./cmd/hifi-experiments
	cd /tmp/hifi-cli && ./hifi-mttf > mttf.txt && grep -q 'safe distance at 8.3e+07 ops/s' mttf.txt
	cd /tmp/hifi-cli && ./hifi-mttf -table > table.txt && grep -q 'adaptive sequences for a 7-step shift' table.txt
	cd /tmp/hifi-cli && ./hifi-design > design.txt && grep -q 'Pareto frontier' design.txt
	cd /tmp/hifi-cli && ./hifi-trace -workload canneal -o canneal.hftr -q
	cd /tmp/hifi-cli && ./hifi-trace -i canneal.hftr -stats > stats.txt && grep -q 'canneal.hftr: 100000 records' stats.txt
	cd /tmp/hifi-cli && ./hifi-trace -workload canneal -n 1000 -o c1k.hftr -q && test $$(wc -c < c1k.hftr) = 8013
	cd /tmp/hifi-cli && ./hifi-mttf -seglen 1 -q; test $$? = 2
	cd /tmp/hifi-cli && ./hifi-trace -q -workload nope -n 10 -o nope.hftr; test $$? = 2 && test ! -e nope.hftr
	cd /tmp/hifi-cli && timeout 20 ./hifi-serve -q -rate NaN; test $$? = 2 && test ! -e .hifi-serve-cache
	cd /tmp/hifi-cli && timeout 20 ./hifi-serve -q -spans-out s 2> serve.err; test $$? = 2 && test ! -e .hifi-serve-cache && grep -q -- '-spans-out' serve.err
	cd /tmp/hifi-cli && touch events.ndjson && timeout 20 ./hifi-watch -q -interval 0 events.ndjson 2> watch.err; \
		test $$? = 2 && grep -q -- '-interval must be positive' watch.err
	cd /tmp/hifi-cli && ./hifi-bench -q -threshold NaN -compare $(CURDIR)/BENCH_2026-10-18.json $(CURDIR)/BENCH_2026-10-19_2.json; test $$? = 2
	cd /tmp/hifi-cli && ./hifi-experiments -q -faults nope; test $$? = 2
	cd /tmp/hifi-cli && ./hifi-experiments -q -job-retries 1; test $$? = 2

# chaos is the local version of CI's chaos job (docs/faults.md): the
# storage-chaos tests under the race detector, a tiny seeded
# device-plane campaign, and the contract that -faults off is
# byte-identical to a plan-free run.
chaos:
	$(GO) test -race ./internal/faults/... ./internal/engine/...
	$(GO) run ./cmd/hifi-chaos -scaled -accesses 500 -intensities 0,2 \
		-schemes baseline,adaptive > /tmp/hifi-chaos-curves.txt
	grep -q 'Chaos: DUE MTTF vs fault intensity' /tmp/hifi-chaos-curves.txt
	$(GO) run ./cmd/hifi-experiments -run fig14 -scaled -accesses 1000 -q > /tmp/hifi-plan-free.txt
	$(GO) run ./cmd/hifi-experiments -run fig14 -scaled -accesses 1000 -q -faults off > /tmp/hifi-faults-off.txt
	diff -u /tmp/hifi-plan-free.txt /tmp/hifi-faults-off.txt

# fidelity is the local version of CI's fidelity job: a scaled sweep
# scored against the paper-anchor set (internal/fidelity); any failing
# anchor fails the target. Produces fidelity.json and report.html.
fidelity:
	$(GO) run ./cmd/hifi-report -scaled -q -fidelity-out fidelity.json \
		-fidelity-gate -html report.html

report:
	$(GO) run ./cmd/hifi-report -scaled -o report.md

fmt:
	gofmt -w .

# clean spares the date-stamped BENCH_*.json snapshots: those are
# committed history (the bench trajectory), not build products.
clean:
	rm -f report.md report.html fidelity.json BENCH_smoke.json \
		*.manifest.json *.spans.json *.folded *.pprof
