#!/usr/bin/env bash
# chaos_smoke.sh — fault-injection drill of the resilience stack, CI-wired.
#
# Two stages:
#   1. The tagged test pass: `go test -tags faultinject -race` over the
#      injector and every package carrying injection points, including
#      the 200-job chaos sweep in internal/serve.
#   2. A live drill: build redhip-serve with -tags faultinject, arm a
#      fault schedule via -fault, and verify over HTTP that (a) a job
#      with a retry policy survives injected run failures and the retry
#      shows in /metrics, and (b) a total-failure schedule trips the
#      circuit breaker into 503 + Retry-After and flips /readyz, while
#      /healthz stays 200 throughout.
#
# The faultinject tag never reaches default builds: untagged binaries
# compile the injection points out entirely (see internal/faultinject).
set -euo pipefail

ADDR="${CHAOS_SMOKE_ADDR:-127.0.0.1:8092}"
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
    echo "chaos-smoke: FAIL: $*" >&2
    [[ -f "$LOG" ]] && sed 's/^/chaos-smoke:   server: /' "$LOG" >&2
    exit 1
}

start_server() { # args: extra server flags...
    "$BIN_DIR/redhip-serve" -addr "$ADDR" -workers 2 -queue 16 "$@" >"$LOG" 2>&1 &
    SERVER_PID=$!
    for _ in $(seq 1 50); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$SERVER_PID" 2>/dev/null || fail "server exited during startup"
        sleep 0.2
    done
    fail "server never became healthy"
}

stop_server() {
    kill "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" 2>/dev/null || true
    SERVER_PID=""
}

submit() { # args: json body; sets SUBMIT_CODE and SUBMIT_BODY
    local out
    out=$(curl -sS -w '\n%{http_code}' -X POST "$BASE/v1/jobs" \
        -H 'Content-Type: application/json' -d "$1") || fail "POST /v1/jobs failed"
    SUBMIT_CODE=$(echo "$out" | tail -n1)
    SUBMIT_BODY=$(echo "$out" | sed '$d')
}

wait_state() { # args: job id, wanted state
    local state=""
    for _ in $(seq 1 150); do
        state=$(curl -fsS "$BASE/v1/jobs/$1?results=false" \
            | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        [[ "$state" == "$2" ]] && return 0
        case "$state" in done | failed | cancelled) fail "job $1 ended $state, want $2" ;; esac
        sleep 0.2
    done
    fail "job $1 did not reach $2 (last: $state)"
}

echo "chaos-smoke: tagged -race test pass (injector + injection-point packages)"
go test -tags faultinject -race \
    ./internal/faultinject/ ./internal/tracestore/ ./internal/experiment/ ./internal/serve/ \
    || fail "tagged test pass failed"

echo "chaos-smoke: untagged builds must reject -fault"
go build -o "$BIN_DIR/redhip-serve-plain" ./cmd/redhip-serve
if "$BIN_DIR/redhip-serve-plain" -addr "$ADDR" -fault 'experiment.run:err=x' 2>/dev/null; then
    fail "untagged binary accepted -fault"
fi

echo "chaos-smoke: building redhip-serve with -tags faultinject"
go build -tags faultinject -o "$BIN_DIR/redhip-serve" ./cmd/redhip-serve

# --- drill 1: retry survives injected run failures ---------------------------

echo "chaos-smoke: drill 1 — retry under a 35% run-failure schedule"
start_server -fault 'experiment.run:prob=0.35,err=chaos drill' -fault-seed 11 \
    -breaker-threshold -1 -retry-max 8
submit '{"workloads":["mcf"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":2000,"retry":{"max_attempts":8,"backoff_ms":1}}'
[[ "$SUBMIT_CODE" == 202 ]] || fail "drill-1 submit = $SUBMIT_CODE: $SUBMIT_BODY"
JOB_ID=$(echo "$SUBMIT_BODY" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
[[ -n "$JOB_ID" ]] || fail "no job id: $SUBMIT_BODY"
wait_state "$JOB_ID" done
METRICS=$(curl -fsS "$BASE/metrics") || fail "/metrics scrape failed"
RETRIES=$(echo "$METRICS" | sed -n 's/^redhip_serve_retries_total \([0-9]*\)$/\1/p')
[[ -n "$RETRIES" && "$RETRIES" -ge 1 ]] \
    || fail "job survived but retries_total=$RETRIES — faults not injected?"
echo "chaos-smoke: drill 1 OK (job done after $RETRIES retries)"
stop_server

# --- drill 2: total failure trips the breaker --------------------------------

echo "chaos-smoke: drill 2 — breaker trip under a 100% failure schedule"
start_server -fault 'experiment.run:prob=1,err=chaos drill' -fault-seed 11 \
    -breaker-threshold 2 -retry-max -1
for SEED in 1 2; do
    submit "{\"workloads\":[\"mcf\"],\"schemes\":[\"base\"],\"geometry\":\"smoke\",\"refs_per_core\":2000,\"seed\":$SEED}"
    [[ "$SUBMIT_CODE" == 202 ]] || fail "drill-2 seed $SEED submit = $SUBMIT_CODE: $SUBMIT_BODY"
    JOB_ID=$(echo "$SUBMIT_BODY" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    wait_state "$JOB_ID" failed
done
# Two consecutive failures under "base": its circuit is open now.
HDRS=$(curl -sS -D - -o /dev/null -X POST "$BASE/v1/jobs" \
    -H 'Content-Type: application/json' \
    -d '{"workloads":["mcf"],"schemes":["base"],"geometry":"smoke","refs_per_core":2000,"seed":3}')
echo "$HDRS" | head -n1 | grep -q ' 503 ' || fail "open breaker did not 503: $HDRS"
echo "$HDRS" | grep -qi '^retry-after:' || fail "breaker 503 missing Retry-After"
READY_BODY=$(curl -sS -w '\n%{http_code}' "$BASE/readyz")
READY_CODE=$(echo "$READY_BODY" | tail -n1)
[[ "$READY_CODE" == 503 ]] || fail "/readyz = $READY_CODE with an open circuit, want 503"
echo "$READY_BODY" | grep -q '"breaker_open:base"' \
    || fail "/readyz body does not list breaker_open:base: $READY_BODY"
curl -fsS "$BASE/healthz" >/dev/null || fail "/healthz failed during breaker-open (liveness must hold)"
METRICS=$(curl -fsS "$BASE/metrics")
echo "$METRICS" | grep -q '^redhip_serve_breaker_trips_total [1-9]' || fail "breaker_trips_total not incremented"
echo "$METRICS" | grep -q '^redhip_serve_shed_breaker_total [1-9]' || fail "shed_breaker_total not incremented"
echo "chaos-smoke: drill 2 OK (breaker open: 503 + Retry-After, readyz 503 breaker_open:base, healthz 200)"
stop_server

echo "chaos-smoke: OK"
