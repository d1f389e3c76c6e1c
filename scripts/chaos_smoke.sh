#!/usr/bin/env bash
# chaos_smoke.sh — fault-injection drill of the resilience stack, CI-wired.
#
# Two stages:
#   1. The tagged test pass: `go test -tags faultinject -race` over the
#      injector and every package carrying injection points, including
#      the 200-job chaos sweep in internal/serve.
#   2. A live drill: build redhip-serve with -tags faultinject, arm a
#      one-shot run fault via -fault, and verify over HTTP that the fault
#      fails exactly its job (state failed, one terminal SSE event), that
#      /healthz and /readyz stay 200 throughout, and that resubmitting the
#      same spec creates a fresh job (the failed key was released) which
#      runs to done.
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

# --- drill: an injected fault fails exactly its job ---------------------------

probes_ok() { # args: when
    curl -fsS "$BASE/healthz" >/dev/null || fail "/healthz not 200 $1"
    curl -fsS "$BASE/readyz" >/dev/null || fail "/readyz not 200 $1"
}

job_id() { echo "$SUBMIT_BODY" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'; }

echo "chaos-smoke: drill — one injected run fault fails one job, the resubmission runs"
start_server -fault 'experiment.run:times=1,err=chaos drill'
SPEC='{"workloads":["mcf"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":2000}'
probes_ok "before the drill"
submit "$SPEC"
[[ "$SUBMIT_CODE" == 202 ]] || fail "submit = $SUBMIT_CODE: $SUBMIT_BODY"
FIRST=$(job_id)
[[ -n "$FIRST" ]] || fail "no job id: $SUBMIT_BODY"
wait_state "$FIRST" failed
TERMINALS=$(curl -fsS --max-time 10 "$BASE/v1/jobs/$FIRST/events" \
    | grep -cE '^event: (done|failed|cancelled)$' || true)
[[ "$TERMINALS" == 1 ]] || fail "failed job has $TERMINALS terminal SSE events, want 1"
probes_ok "after the failed job"

submit "$SPEC"
[[ "$SUBMIT_CODE" == 202 ]] || fail "resubmit = $SUBMIT_CODE: $SUBMIT_BODY"
echo "$SUBMIT_BODY" | grep -q '"deduped": *false' || fail "resubmission deduped onto the failed job: $SUBMIT_BODY"
SECOND=$(job_id)
[[ "$SECOND" != "$FIRST" ]] || fail "resubmission reused job $FIRST"
wait_state "$SECOND" done
probes_ok "after the resubmission"
echo "chaos-smoke: drill OK ($FIRST failed with one terminal event, $SECOND done, probes 200 throughout)"
stop_server

echo "chaos-smoke: OK"
