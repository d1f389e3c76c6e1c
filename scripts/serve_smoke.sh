#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of redhip-serve, CI-wired.
#
# Builds redhip-sim and redhip-serve, starts the server, submits a tiny
# smoke-geometry job, polls it to completion, scrapes /metrics, and
# fails on any non-2xx response or missing metric family.
set -euo pipefail

ADDR="${SERVE_SMOKE_ADDR:-127.0.0.1:8091}"
BASE="http://$ADDR"
BIN_DIR="$(mktemp -d)"
LOG="$BIN_DIR/serve.log"

cleanup() {
    if [[ -n "${SERVER_PID:-}" ]]; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$BIN_DIR"
}
trap cleanup EXIT

fail() {
    echo "serve-smoke: FAIL: $*" >&2
    [[ -f "$LOG" ]] && sed 's/^/serve-smoke:   server: /' "$LOG" >&2
    exit 1
}

echo "serve-smoke: building redhip-sim and redhip-serve"
go build -o "$BIN_DIR/redhip-sim" ./cmd/redhip-sim
go build -o "$BIN_DIR/redhip-serve" ./cmd/redhip-serve

echo "serve-smoke: starting server on $ADDR"
# A 1-byte trace budget makes every stream a store miss that is never
# retained, and the snapshot cache makes the warmed job exercise the
# warm-state store — both must then show up on /metrics below.
"$BIN_DIR/redhip-serve" -addr "$ADDR" -workers 2 -queue 8 \
    -cache-bytes 1 \
    -snapshot-cache-bytes $((64 * 1024 * 1024)) >"$LOG" 2>&1 &
SERVER_PID=$!

# Wait for readiness.
for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
        break
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.2
done
curl -fsS "$BASE/healthz" >/dev/null || fail "server never became healthy"

echo "serve-smoke: submitting smoke job"
SUBMIT=$(curl -fsS -X POST "$BASE/v1/jobs" \
    -H 'Content-Type: application/json' \
    -d '{"workloads":["mcf"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":20000,"warmup_refs_per_core":5000}') \
    || fail "job submission rejected"
JOB_ID=$(echo "$SUBMIT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[[ -n "$JOB_ID" ]] || fail "no job id in submit response: $SUBMIT"
echo "serve-smoke: job $JOB_ID accepted"

echo "serve-smoke: polling to completion"
STATE=""
for _ in $(seq 1 150); do
    STATUS=$(curl -fsS "$BASE/v1/jobs/$JOB_ID?results=false") || fail "status poll failed"
    STATE=$(echo "$STATUS" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
    case "$STATE" in
        done) break ;;
        failed|cancelled) fail "job ended $STATE: $STATUS" ;;
    esac
    sleep 0.2
done
[[ "$STATE" == "done" ]] || fail "job did not complete in time (state: $STATE)"
echo "serve-smoke: job done"

# The full status must embed both results.
RESULTS=$(curl -fsS "$BASE/v1/jobs/$JOB_ID")
echo "$RESULTS" | grep -q '"results"' || fail "completed job has no results"

# The SSE replay must show progress before the terminal event.
EVENTS=$(curl -fsS --max-time 10 "$BASE/v1/jobs/$JOB_ID/events" || true)
echo "$EVENTS" | grep -q '^event: progress$' || fail "no progress event in SSE replay"
echo "$EVENTS" | grep -q '^event: done$' || fail "no terminal event in SSE replay"

echo "serve-smoke: scraping /metrics"
METRICS=$(curl -fsS "$BASE/metrics") || fail "/metrics scrape failed"
for M in \
    redhip_serve_jobs_submitted_total \
    redhip_serve_jobs_completed_total \
    redhip_serve_jobs_deduped_total \
    redhip_serve_jobs_rejected_total \
    redhip_serve_runner_executions_total \
    redhip_serve_queue_depth \
    redhip_serve_inflight \
    redhip_serve_run_duration_seconds \
    redhip_tracestore_hits_total \
    redhip_tracestore_misses_total \
    redhip_tracestore_evictions_total \
    redhip_simstate_hits_total \
    redhip_simstate_puts_total \
    redhip_simstate_bytes; do
    echo "$METRICS" | grep -q "^# TYPE $M " || fail "metric family $M missing"
done
echo "$METRICS" | grep -q '^redhip_serve_jobs_completed_total 1$' \
    || fail "jobs_completed_total != 1"
# The warmed job must have parked its per-scheme warm states.
echo "$METRICS" | grep -Eq '^redhip_simstate_puts_total [1-9]' \
    || fail "no warm-state blob stored in the snapshot cache"

# Sanity-check the sibling CLI still answers (the job built it above).
"$BIN_DIR/redhip-sim" -workload mcf -scheme base -geometry smoke -refs 5000 >/dev/null \
    || fail "redhip-sim smoke run failed"

echo "serve-smoke: OK"
