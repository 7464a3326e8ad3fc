#!/usr/bin/env bash
# serve_crash_smoke.sh — restart-recovery smoke for hifi-serve's job index
# (docs/serve.md, "Restart recovery & the job index").
#
# Proves with real processes that the job index alone brings work back
# after both a kill -9 and a SIGTERM drain:
#
#   1. Boot a daemon on a scratch cache, run one sweep to completion,
#      then submit a second (bigger) sweep and SIGKILL the daemon while
#      it is mid-job — no drain, no terminal index record.
#   2. Restart against the same cache dir with -resume. The completed
#      job must answer GET /v1/jobs/{id} with state=done and
#      restored=true, and its tables must re-serve byte-identical to a
#      direct hifi-experiments run with "executed": 0 (everything from
#      the shared content-addressed cache).
#   3. The killed-mid-run job must come back under its ORIGINAL id,
#      re-queued, and run to completion.
#   4. /metrics must show the index replay/append counters, and the
#      index file itself must start with the hifi_serve_index_v1 header.
#   5. On a fresh cache, boot with -runners 1 -drain-timeout 1s, start a
#      30000-access sweep, queue a second spec behind it, and SIGTERM.
#      The drain must exit 0 and leave no drain-journal file behind: the
#      index is the only recovery record. The deadline interrupts the
#      sweep.
#   6. Restart with -resume: both jobs must re-run under their original
#      ids and traces and reach done.
#
# Used by `make serve-crash-smoke` and CI's serve job. Needs curl.
set -euo pipefail

GO=${GO:-go}
ADDR=${ADDR:-localhost:8793}
BASE="http://$ADDR"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/hifi-serve-crash.XXXXXX")

SERVE_PID=""
cleanup() {
	if [[ -n "$SERVE_PID" ]] && kill -0 "$SERVE_PID" 2>/dev/null; then
		kill -KILL "$SERVE_PID" 2>/dev/null || true
		wait "$SERVE_PID" 2>/dev/null || true
	fi
	rm -rf "$WORK"
}
trap cleanup EXIT

jget() {
	sed -n 's/^ *"'"$2"'": *"\{0,1\}\([^",]*\)"\{0,1\},\{0,1\}$/\1/p' "$1" | head -1
}

wait_healthy() {
	for i in $(seq 1 50); do
		if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.2
	done
	echo "daemon never became healthy" >&2
	cat "$WORK/serve.log" >&2
	return 1
}

# wait_running JOB FILE — poll until the job is running. A kill that
# lands before the runner has the job would test a different path.
wait_running() {
	for i in $(seq 1 100); do
		curl -fsS "$BASE/v1/jobs/$1" >"$2"
		if [[ "$(jget "$2" state)" == "running" ]]; then return 0; fi
		sleep 0.1
	done
	echo "job $1 never reached running (state: $(jget "$2" state))" >&2
	return 1
}

wait_done() {
	for i in $(seq 1 300); do
		curl -fsS "$BASE/v1/jobs/$1" >"$WORK/job.json"
		case "$(jget "$WORK/job.json" state)" in
		done) return 0 ;;
		failed | canceled)
			echo "job $1 ended $(jget "$WORK/job.json" state): $(jget "$WORK/job.json" error)" >&2
			return 1
			;;
		esac
		sleep 0.2
	done
	echo "job $1 never finished" >&2
	return 1
}

echo "== build"
$GO build -o "$WORK/hifi-serve" ./cmd/hifi-serve
$GO build -o "$WORK/hifi-experiments" ./cmd/hifi-experiments

echo "== start daemon on $ADDR"
"$WORK/hifi-serve" -listen "$ADDR" -cache-dir "$WORK/cache" -runners 1 \
	-access-log "" >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!
wait_healthy

echo "== run one sweep to completion"
SPEC1='{"run":["fig14"],"scaled":true,"accesses":1000}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC1" \
	"$BASE/v1/jobs" >"$WORK/submit1.json"
JOB1=$(jget "$WORK/submit1.json" id)
test -n "$JOB1"
wait_done "$JOB1"
curl -fsS "$BASE/v1/jobs/$JOB1/tables" >"$WORK/tables_before.txt"

echo "== submit a bigger sweep and SIGKILL the daemon mid-job"
# fig14 actually simulates (table3 is analytic and returns in
# milliseconds); 30k accesses is ~2s of sweep — plenty to kill into.
SPEC2='{"run":["fig14"],"scaled":true,"accesses":30000}'
curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC2" \
	"$BASE/v1/jobs" >"$WORK/submit2.json"
JOB2=$(jget "$WORK/submit2.json" id)
test -n "$JOB2"
# Wait until the runner has the job (the index has its started record),
# then kill -9 while it is mid-sweep: no drain — only the index
# survives.
wait_running "$JOB2" "$WORK/job2.json"
kill -KILL "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

test -f "$WORK/cache/serve.index.ndjson"
head -1 "$WORK/cache/serve.index.ndjson" | grep -q hifi_serve_index_v1

echo "== restart with -resume against the same cache dir"
"$WORK/hifi-serve" -listen "$ADDR" -cache-dir "$WORK/cache" -runners 1 \
	-resume -access-log "" >"$WORK/serve2.log" 2>&1 &
SERVE_PID=$!
wait_healthy

echo "== completed job restored across the crash"
curl -fsS "$BASE/v1/jobs/$JOB1" >"$WORK/restored.json"
test "$(jget "$WORK/restored.json" state)" = "done"
grep -q '"restored": true' "$WORK/restored.json"

echo "== restored tables byte-identical, zero re-execution"
curl -fsS "$BASE/v1/jobs/$JOB1/tables" >"$WORK/tables_after.txt"
diff -u "$WORK/tables_before.txt" "$WORK/tables_after.txt"
"$WORK/hifi-experiments" -run fig14 -scaled -accesses 1000 -q >"$WORK/direct.txt"
diff -u "$WORK/direct.txt" "$WORK/tables_after.txt"
curl -fsS "$BASE/v1/jobs/$JOB1" >"$WORK/restored2.json"
grep -q '"executed": 0' "$WORK/restored2.json"

echo "== interrupted job re-queued under its original id and finishes"
wait_done "$JOB2"

echo "== index metrics on /metrics"
curl -fsS "$BASE/metrics" >"$WORK/metrics.txt"
grep -qE '^hifi_serve_index_replayed_total [1-9]' "$WORK/metrics.txt"
grep -qE '^hifi_serve_index_records_total [1-9]' "$WORK/metrics.txt"

echo "== clean shutdown of the successor"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""

echo "== SIGTERM mid-job on a fresh cache"
# One runner keeps the second spec queued; one worker makes the 30k
# sweep outlast the 1s drain deadline, which then interrupts it.
"$WORK/hifi-serve" -listen "$ADDR" -cache-dir "$WORK/drain-cache" -runners 1 -workers 1 \
	-drain-timeout 1s -access-log "" >"$WORK/serve3.log" 2>&1 &
SERVE_PID=$!
wait_healthy
curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC2" \
	"$BASE/v1/jobs" >"$WORK/submit3.json"
JOB3=$(jget "$WORK/submit3.json" id)
test -n "$JOB3"
wait_running "$JOB3" "$WORK/job3.json"
curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC1" \
	"$BASE/v1/jobs" >"$WORK/submit4.json"
test "$(jget "$WORK/submit4.json" state)" = "queued"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" # set -e: the drain must exit 0
SERVE_PID=""
test ! -e "$WORK/drain-cache/serve.journal.json"

echo "== restart with -resume: both jobs re-run under their original ids"
"$WORK/hifi-serve" -listen "$ADDR" -cache-dir "$WORK/drain-cache" -runners 1 \
	-resume -access-log "" >"$WORK/serve4.log" 2>&1 &
SERVE_PID=$!
wait_healthy
for n in 3 4; do
	JOB=$(jget "$WORK/submit$n.json" id)
	wait_done "$JOB"
	if grep -q '"restored": true' "$WORK/job.json"; then
		echo "job $JOB was restored, not re-run: the drain did not leave it queued" >&2
		exit 1
	fi
	test "$(jget "$WORK/job.json" trace_id)" = "$(jget "$WORK/submit$n.json" trace_id)"
done

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
SERVE_PID=""

echo "serve crash smoke OK"
