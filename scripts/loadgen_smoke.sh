#!/usr/bin/env bash
# loadgen_smoke.sh — end-to-end smoke test of redhip-load + grid jobs
# (POST /v1/sweeps), CI-wired.
#
# Proves four things:
#   1. The arrival schedule is a pure function of (profile, seed): two
#      -print-schedule runs with the same seed are byte-identical, a
#      different seed differs.
#   2. A 10s seeded bursty profile against a deliberately tiny server
#      (1 worker, queue depth 1) produces zero 5xx and nonzero 429s —
#      backpressure, not failure, under burst.
#   3. A grid job submitted to that loadgen-warmed server (its cells
#      reuse the runs of the load run's done jobs) renders artifacts
#      byte-identical to the same grid on a fresh, never-loaded server,
#      and to a rerun there that dedups onto the first grid job:
#      artifacts derive only from deterministic simulation outputs.
#   4. /healthz reports JSON with a version, and every CLI answers
#      -version.
set -euo pipefail

ADDR1="${LOADGEN_SMOKE_ADDR1:-127.0.0.1:8093}"
ADDR2="${LOADGEN_SMOKE_ADDR2:-127.0.0.1:8094}"
BASE1="http://$ADDR1"
BASE2="http://$ADDR2"
BIN_DIR="$(mktemp -d)"
LOG1="$BIN_DIR/serve1.log"
LOG2="$BIN_DIR/serve2.log"

cleanup() {
    for PID in "${SERVER1_PID:-}" "${SERVER2_PID:-}"; do
        if [[ -n "$PID" ]]; then
            kill "$PID" 2>/dev/null || true
            wait "$PID" 2>/dev/null || true
        fi
    done
    rm -rf "$BIN_DIR"
}
trap cleanup EXIT

fail() {
    echo "loadgen-smoke: FAIL: $*" >&2
    [[ -f "$LOG1" ]] && sed 's/^/loadgen-smoke:   server1: /' "$LOG1" >&2
    [[ -f "$LOG2" ]] && sed 's/^/loadgen-smoke:   server2: /' "$LOG2" >&2
    exit 1
}

wait_healthy() {
    local base=$1 pid=$2
    for _ in $(seq 1 50); do
        if curl -fsS "$base/healthz" >/dev/null 2>&1; then
            return 0
        fi
        kill -0 "$pid" 2>/dev/null || fail "server at $base exited during startup"
        sleep 0.2
    done
    fail "server at $base never became healthy"
}

# json_int <file> <key>: extract an integer field from the report's
# "total" cohort, which the writer renders after the per-cohort blocks
# — hence the last occurrence wins.
json_int() {
    sed -n 's/.*"'"$2"'": *\([0-9][0-9]*\).*/\1/p' "$1" | tail -n 1
}

echo "loadgen-smoke: building redhip-serve and redhip-load"
go build -o "$BIN_DIR/redhip-serve" ./cmd/redhip-serve
go build -o "$BIN_DIR/redhip-load" ./cmd/redhip-load

echo "loadgen-smoke: -version answers"
"$BIN_DIR/redhip-load" -version >/dev/null || fail "redhip-load -version failed"
"$BIN_DIR/redhip-serve" -version >/dev/null || fail "redhip-serve -version failed"

echo "loadgen-smoke: schedule determinism"
"$BIN_DIR/redhip-load" -print-schedule -seed 42 -rate 20 -duration 10s -model bursty > "$BIN_DIR/sched-a.txt"
"$BIN_DIR/redhip-load" -print-schedule -seed 42 -rate 20 -duration 10s -model bursty > "$BIN_DIR/sched-b.txt"
diff "$BIN_DIR/sched-a.txt" "$BIN_DIR/sched-b.txt" \
    || fail "identically-seeded schedules differ"
[[ -s "$BIN_DIR/sched-a.txt" ]] || fail "schedule is empty"
"$BIN_DIR/redhip-load" -print-schedule -seed 43 -rate 20 -duration 10s -model bursty > "$BIN_DIR/sched-c.txt"
if diff -q "$BIN_DIR/sched-a.txt" "$BIN_DIR/sched-c.txt" >/dev/null; then
    fail "different seeds produced identical schedules"
fi

echo "loadgen-smoke: starting servers on $ADDR1 (tiny) and $ADDR2"
# Server 1 is deliberately starved — one worker, queue depth 1 — so the
# burst phase of the profile overflows the queue and earns honest 429s.
# Shedding is disabled so queue-full is the only rejection path: the
# report must show 429s, not 503s.
"$BIN_DIR/redhip-serve" -addr "$ADDR1" -workers 1 -queue 1 -memory-budget -1 >"$LOG1" 2>&1 &
SERVER1_PID=$!
"$BIN_DIR/redhip-serve" -addr "$ADDR2" -workers 2 -queue 8 >"$LOG2" 2>&1 &
SERVER2_PID=$!
wait_healthy "$BASE1" "$SERVER1_PID"
wait_healthy "$BASE2" "$SERVER2_PID"

echo "loadgen-smoke: /healthz payload"
HEALTH=$(curl -fsS "$BASE1/healthz")
echo "$HEALTH" | grep -q '"status": *"ok"' || fail "healthz missing status: $HEALTH"
echo "$HEALTH" | grep -q '"version"' || fail "healthz missing version: $HEALTH"

# The profile: 10 seconds of bursty traffic over six cohorts whose
# specs differ by workload and seed, each ~2s of simulation. Distinct
# specs mean dedup cannot absorb everything — new jobs must queue, and
# with one worker and queue depth 1 the burst has to bounce some.
cat > "$BIN_DIR/profile.json" <<'EOF'
{
  "name": "smoke-burst",
  "seed": 42,
  "phases": [
    {"name": "burst", "duration_seconds": 10, "rate_per_sec": 25,
     "model": "bursty", "burst_factor": 8, "burst_fraction": 0.3, "burst_mean_seconds": 1.0}
  ],
  "cohorts": [
    {"name": "s1", "weight": 1, "spec": {"workloads":["mcf"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":4000000,"seed":1}},
    {"name": "s2", "weight": 1, "spec": {"workloads":["mcf"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":4000000,"seed":2}},
    {"name": "s3", "weight": 1, "spec": {"workloads":["milc"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":4000000,"seed":1}},
    {"name": "s4", "weight": 1, "spec": {"workloads":["milc"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":4000000,"seed":2}},
    {"name": "s5", "weight": 1, "spec": {"workloads":["soplex"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":4000000,"seed":1}},
    {"name": "s6", "weight": 1, "spec": {"workloads":["soplex"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":4000000,"seed":2}}
  ]
}
EOF

echo "loadgen-smoke: 10s seeded bursty load against server 1"
"$BIN_DIR/redhip-load" -url "$BASE1" -profile "$BIN_DIR/profile.json" \
    -report "$BIN_DIR/report.json" || fail "redhip-load run failed"

SENT=$(json_int "$BIN_DIR/report.json" sent)
R429=$(json_int "$BIN_DIR/report.json" rejected_429)
R5XX=$(json_int "$BIN_DIR/report.json" server_5xx)
NETERR=$(json_int "$BIN_DIR/report.json" network_errors)
echo "loadgen-smoke: report: sent=$SENT 429=$R429 5xx=$R5XX neterr=$NETERR"
[[ -n "$SENT" && "$SENT" -gt 0 ]] || fail "report shows no requests sent"
[[ "$R5XX" == 0 ]] || fail "server returned $R5XX 5xx responses under load"
[[ "$NETERR" == 0 ]] || fail "$NETERR requests failed at the network layer"
[[ "$R429" -gt 0 ]] || fail "no 429s under burst — backpressure untested"

# The same sweep grid on both servers. On server 1 the grid job's cells
# reuse the runs of jobs the load run already finished (same specs by
# construction); server 2 computes everything fresh. The artifacts must
# not care.
GRID='{"workloads":["mcf","milc"],"schemes":["base","redhip"],"geometries":["smoke"],"seeds":[1,2],"refs_per_core":[4000000]}'

# run_sweep <base> <artifacts-out> <want-deduped>: submit the grid as a
# job, poll it to done through /v1/jobs and fetch its artifacts. A 429
# is waited out by its Retry-After: server 1 runs one worker and one
# queue slot and may still be busy when the load run ends.
run_sweep() {
    local base=$1 out=$2 want_dedup=$3
    local code ra id deduped state
    for _ in $(seq 1 60); do
        code=$(curl -sS -o "$BIN_DIR/submit.json" -D "$BIN_DIR/submit.hdr" -w '%{http_code}' \
            -X POST "$base/v1/sweeps" -H 'Content-Type: application/json' -d "$GRID") \
            || fail "sweep submission to $base failed"
        [[ "$code" == 429 ]] || break
        ra=$(sed -n 's/^[Rr]etry-[Aa]fter: *\([0-9][0-9]*\).*/\1/p' "$BIN_DIR/submit.hdr")
        [[ -n "$ra" ]] || fail "429 from $base without a Retry-After"
        echo "loadgen-smoke: $base answered 429, retrying after ${ra}s"
        sleep "$ra"
    done
    [[ "$code" == 202 ]] || fail "sweep submission to $base answered $code: $(cat "$BIN_DIR/submit.json")"
    id=$(sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' "$BIN_DIR/submit.json")
    [[ -n "$id" ]] || fail "no job id in response: $(cat "$BIN_DIR/submit.json")"
    deduped=$(sed -n 's/.*"deduped": *\([a-z]*\).*/\1/p' "$BIN_DIR/submit.json")
    [[ "$deduped" == "$want_dedup" ]] \
        || fail "grid job $id at $base answered deduped=$deduped, want $want_dedup"
    state=""
    for _ in $(seq 1 300); do
        state=$(curl -fsS "$base/v1/jobs/$id?results=false" \
            | sed -n 's/^  "state": *"\([^"]*\)".*/\1/p')
        case "$state" in
            done) break ;;
            failed|cancelled) fail "grid job $id at $base ended $state" ;;
        esac
        sleep 0.2
    done
    [[ "$state" == "done" ]] || fail "grid job $id at $base did not finish (state: $state)"
    curl -fsS "$base/v1/jobs/$id/artifacts?format=text" > "$out" \
        || fail "artifact fetch failed at $base"
    [[ -s "$out" ]] || fail "empty artifacts at $base"
}

echo "loadgen-smoke: grid job on loadgen-warmed server 1"
run_sweep "$BASE1" "$BIN_DIR/artifacts-1.txt" false
echo "loadgen-smoke: grid job on fresh server 2"
run_sweep "$BASE2" "$BIN_DIR/artifacts-2.txt" false

diff "$BIN_DIR/artifacts-1.txt" "$BIN_DIR/artifacts-2.txt" \
    || fail "sweep artifacts differ between loadgen-warmed and fresh servers"
echo "loadgen-smoke: artifacts bit-identical across servers"

echo "loadgen-smoke: resubmitting the grid on server 2 (dedups onto the done job)"
run_sweep "$BASE2" "$BIN_DIR/artifacts-3.txt" true
diff "$BIN_DIR/artifacts-2.txt" "$BIN_DIR/artifacts-3.txt" \
    || fail "sweep artifacts differ across identically-seeded runs"

echo "loadgen-smoke: checking HTTP metric families on server 2"
METRICS=$(curl -fsS "$BASE2/metrics") || fail "/metrics scrape failed"
for M in \
    redhip_serve_http_requests_total \
    redhip_serve_http_request_duration_seconds \
    redhip_serve_http_inflight; do
    echo "$METRICS" | grep -q "^# TYPE $M " || fail "metric family $M missing"
done

echo "loadgen-smoke: OK"
