#!/usr/bin/env bash
# failover_smoke.sh — scripted failover drill of the sharded serve
# cluster, CI-wired.
#
# Two stages:
#   1. The tagged test pass: `go test -tags failover -race` boots three
#      in-process replicas behind the router, SIGKILLs one and
#      partitions another mid-sweep, and asserts no lost jobs, no
#      double execution and bit-identical results (see
#      internal/cluster/cluster_test.go).
#   2. A live drill over real processes: a router and three registered
#      redhip-serve replicas; one replica is SIGKILLed and another
#      SIGSTOPped (a partition: alive but silent) mid-batch. Every
#      routed job must still finish, execution counters summed over the
#      survivors must equal the number of unique specs, results must be
#      byte-identical to a fresh single-replica run, a mixed-version
#      registration must be refused, and a seeded loadgen mix through
#      the router must see zero 5xx while spreading across replicas,
#      and the router's /metrics must expose every redhip_router_*
#      family. The router's /readyz body reads no_ready_replicas while
#      the ring is empty and ready once replicas join.
set -euo pipefail

ROUTER_ADDR="${FAILOVER_SMOKE_ROUTER:-127.0.0.1:8095}"
R1_ADDR="${FAILOVER_SMOKE_R1:-127.0.0.1:8096}"
R2_ADDR="${FAILOVER_SMOKE_R2:-127.0.0.1:8097}"
R3_ADDR="${FAILOVER_SMOKE_R3:-127.0.0.1:8098}"
REF_ADDR="${FAILOVER_SMOKE_REF:-127.0.0.1:8099}"
ROUTER="http://$ROUTER_ADDR"
BIN_DIR="$(mktemp -d)"

# Replicas run with an auto-derived lease: 3/4 of the router's
# advertised dead-declaration floor (3 x 0.75 x 150ms ~ 337ms, so the
# lease lands ~253ms) — below the floor, as the no-double-execution
# invariant requires. Each drill injects its fault as soon as the
# faulted replica's first job reads running, so a killed replica
# finishes nothing, and a frozen one's jobs are fenced or cancelled on
# resume before they can finish (drill 2 checks which).
DRILL_REFS=2000000

declare -A REPLICA_PID

cleanup() {
    for PID in "${ROUTER_PID:-}" "${REF_PID:-}" "${REPLICA_PID[@]:-}"; do
        if [[ -n "$PID" ]]; then
            kill -CONT "$PID" 2>/dev/null || true
            kill "$PID" 2>/dev/null || true
            wait "$PID" 2>/dev/null || true
        fi
    done
    rm -rf "$BIN_DIR"
}
trap cleanup EXIT

fail() {
    echo "failover-smoke: FAIL: $*" >&2
    for LOG in "$BIN_DIR"/*.log; do
        [[ -f "$LOG" ]] && sed "s|^|failover-smoke:   $(basename "$LOG"): |" "$LOG" >&2
    done
    exit 1
}

wait_healthy() { # args: base url
    for _ in $(seq 1 50); do
        curl -fsS "$1/healthz" >/dev/null 2>&1 && return 0
        sleep 0.2
    done
    fail "$1 never became healthy"
}

ring_size() {
    curl -fsS "$ROUTER/v1/cluster/status" | sed -n 's/.*"ring_size": *\([0-9]*\).*/\1/p'
}

wait_ring() { # args: wanted size
    for _ in $(seq 1 100); do
        [[ "$(ring_size)" == "$1" ]] && return 0
        sleep 0.2
    done
    fail "ring never reached size $1 (now: $(ring_size))"
}

submit() { # args: json body; sets SUBMIT_CODE, SUBMIT_BODY, JOB_ID, JOB_REPLICA
    local out hdrs
    hdrs="$BIN_DIR/hdrs"
    out=$(curl -sS -D "$hdrs" -w '\n%{http_code}' -X POST "$ROUTER/v1/jobs" \
        -H 'Content-Type: application/json' -d "$1") || fail "POST /v1/jobs failed"
    SUBMIT_CODE=$(echo "$out" | tail -n1)
    SUBMIT_BODY=$(echo "$out" | sed '$d')
    JOB_ID=$(echo "$SUBMIT_BODY" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    JOB_REPLICA=$(sed -n 's/^X-Redhip-Replica: *\([^[:space:]]*\).*/\1/Ip' "$hdrs")
}

wait_done() { # args: router job id
    local state=""
    for _ in $(seq 1 300); do
        state=$(curl -fsS "$ROUTER/v1/jobs/$1?results=false" \
            | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        [[ "$state" == done ]] && return 0
        case "$state" in failed | cancelled) fail "job $1 ended $state — a job was lost" ;; esac
        sleep 0.2
    done
    fail "job $1 never finished (last: $state)"
}

wait_running() { # args: router job id, drill name
    # A drill injects its fault once the faulted replica's job reads
    # running, so the fault lands mid-job however long drill jobs take
    # on this host. The router mirrors only a job's queued and terminal
    # states, so the running state is read from the replica that owns
    # the job, under the replica job id the router's status names.
    local status replica rid addr_var state=""
    status=$(curl -fsS "$ROUTER/v1/jobs/$1?results=false") || fail "$2: GET /v1/jobs/$1 failed"
    replica=$(echo "$status" | sed -n 's/.*"replica": *"\([^"]*\)".*/\1/p')
    rid=$(echo "$status" | sed -n 's/.*"replica_job_id": *"\([^"]*\)".*/\1/p')
    [[ -n "$replica" && -n "$rid" ]] || fail "$2: job $1 names no replica job: $status"
    addr_var="$(echo "$replica" | tr '[:lower:]' '[:upper:]')_ADDR"
    for _ in $(seq 1 1000); do
        state=$(curl -fsS "http://${!addr_var}/v1/jobs/$rid?results=false" \
            | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p')
        case "$state" in
            running) return 0 ;;
            done) fail "$2: job $1 finished before the fault could be injected — drill jobs are too short to outlive it" ;;
            failed | cancelled) fail "$2: job $1 ended $state before the fault was injected" ;;
        esac
        sleep 0.01
    done
    fail "$2: job $1 never started running on $replica (last: $state)"
}

router_readyz() { # args: wanted status code, regexp the body must match
    local out
    out=$(curl -sS -w '\n%{http_code}' "$ROUTER/readyz") || fail "router /readyz failed"
    [[ "$(echo "$out" | tail -n1)" == "$1" ]] || fail "router /readyz = $out, want status $1"
    echo "$out" | sed '$d' | grep -Eq "$2" || fail "router /readyz body does not match $2: $out"
}

replica_metric() { # args: replica name, metric name
    local addr_var
    addr_var="$(echo "$1" | tr '[:lower:]' '[:upper:]')_ADDR"
    curl -fsS "http://${!addr_var}/metrics" | sed -n "s/^$2 \([0-9]*\)\$/\1/p"
}

job_rehomes() { # args: router job id
    curl -fsS "$ROUTER/v1/jobs/$1?results=false" | sed -n 's/.*"rehomes": *\([0-9]*\).*/\1/p'
}

spec_json() { # args: spec index
    echo "{\"workloads\":[\"mcf\"],\"schemes\":[\"base\",\"redhip\"],\"geometry\":\"smoke\",\"refs_per_core\":$((DRILL_REFS + $1))}"
}

echo "failover-smoke: tagged -race drill (3 in-process replicas, kill + partition)"
go test -tags failover -race ./internal/cluster/ || fail "tagged failover test pass failed"

echo "failover-smoke: building redhip-router, redhip-serve, redhip-load"
go build -o "$BIN_DIR/redhip-router" ./cmd/redhip-router
go build -o "$BIN_DIR/redhip-serve" ./cmd/redhip-serve
go build -o "$BIN_DIR/redhip-load" ./cmd/redhip-load

echo "failover-smoke: starting router + three replicas"
"$BIN_DIR/redhip-router" -addr "$ROUTER_ADDR" -probe-interval 150ms -fail-threshold 3 \
    >"$BIN_DIR/router.log" 2>&1 &
ROUTER_PID=$!
wait_healthy "$ROUTER"
router_readyz 503 '"no_ready_replicas"'

for NAME_ADDR in "r1:$R1_ADDR" "r2:$R2_ADDR" "r3:$R3_ADDR"; do
    NAME="${NAME_ADDR%%:*}"
    ADDR="${NAME_ADDR#*:}"
    "$BIN_DIR/redhip-serve" -addr "$ADDR" -workers 2 -queue 64 \
        -router "$ROUTER" -advertise "http://$ADDR" -name "$NAME" \
        >"$BIN_DIR/$NAME.log" 2>&1 &
    REPLICA_PID[$NAME]=$!
done
wait_ring 3
router_readyz 200 '"ready": *true'

echo "failover-smoke: mixed-version registration must be refused"
SKEW=$(curl -sS -w '\n%{http_code}' -X POST "$ROUTER/v1/cluster/register" \
    -H 'Content-Type: application/json' \
    -d '{"name":"ghost","base_url":"http://127.0.0.1:1","version":"v0.0.0-skew-test"}')
SKEW_CODE=$(echo "$SKEW" | tail -n1)
[[ "$SKEW_CODE" == 409 ]] || fail "skewed registration = $SKEW_CODE, want 409"
echo "$SKEW" | grep -q 'version skew' || fail "skew rejection lacks explanation: $SKEW"

# --- drill 1: SIGKILL a replica mid-batch ------------------------------------

echo "failover-smoke: drill 1 — SIGKILL mid-batch"
WAVE1_IDS=()
WAVE1_SPECS=()
SEEN_REPLICAS=""
VICTIM=""
for N in $(seq 0 7); do
    submit "$(spec_json "$N")"
    [[ "$SUBMIT_CODE" == 202 ]] || fail "wave-1 submit $N = $SUBMIT_CODE: $SUBMIT_BODY"
    [[ -n "$JOB_ID" && -n "$JOB_REPLICA" ]] || fail "wave-1 submit $N missing id/replica"
    WAVE1_IDS+=("$JOB_ID")
    WAVE1_SPECS+=("$N")
    case " $SEEN_REPLICAS " in *" $JOB_REPLICA "*) ;; *) SEEN_REPLICAS="$SEEN_REPLICAS $JOB_REPLICA" ;; esac
    [[ -z "$VICTIM" ]] && { VICTIM="$JOB_REPLICA" VICTIM_JOB="$JOB_ID"; }
done
[[ "$(echo "$SEEN_REPLICAS" | wc -w)" -ge 2 ]] \
    || fail "8 distinct specs all routed to one replica ($SEEN_REPLICAS) — the ring is not spreading keys"
wait_running "$VICTIM_JOB" "drill 1"
echo "failover-smoke: SIGKILL $VICTIM (pid ${REPLICA_PID[$VICTIM]})"
kill -9 "${REPLICA_PID[$VICTIM]}"
wait "${REPLICA_PID[$VICTIM]}" 2>/dev/null || true
unset "REPLICA_PID[$VICTIM]"

for ID in "${WAVE1_IDS[@]}"; do
    wait_done "$ID"
done
REHOMES=$(job_rehomes "$VICTIM_JOB")
[[ -n "$REHOMES" && "$REHOMES" -ge 1 ]] \
    || fail "job $VICTIM_JOB lost its replica but reports rehomes=$REHOMES"
echo "failover-smoke: drill 1 OK (all 8 jobs done, $VICTIM's jobs re-homed)"

# --- drill 2: SIGSTOP (partition) a replica mid-batch ------------------------

echo "failover-smoke: drill 2 — SIGSTOP partition mid-batch"
# Baselines for what stops the frozen replica's jobs, read before the
# wave so the reads cannot delay the SIGSTOP.
declare -A FENCE_BASE CANCEL_BASE
for NAME in "${!REPLICA_PID[@]}"; do
    FENCE_BASE[$NAME]=$(replica_metric "$NAME" redhip_serve_lease_fences_total)
    CANCEL_BASE[$NAME]=$(replica_metric "$NAME" redhip_serve_jobs_cancelled_total)
    [[ -n "${FENCE_BASE[$NAME]}" && -n "${CANCEL_BASE[$NAME]}" ]] \
        || fail "$NAME exposes no lease-fence or job-cancel counter"
done
WAVE2_IDS=()
WAVE2_SPECS=()
FROZEN=""
for N in $(seq 8 10); do
    submit "$(spec_json "$N")"
    [[ "$SUBMIT_CODE" == 202 ]] || fail "wave-2 submit $N = $SUBMIT_CODE: $SUBMIT_BODY"
    WAVE2_IDS+=("$JOB_ID")
    WAVE2_SPECS+=("$N")
    [[ -z "$FROZEN" ]] && { FROZEN="$JOB_REPLICA" FROZEN_JOB="$JOB_ID"; }
done
wait_running "$FROZEN_JOB" "drill 2"
echo "failover-smoke: SIGSTOP $FROZEN (pid ${REPLICA_PID[$FROZEN]})"
kill -STOP "${REPLICA_PID[$FROZEN]}"

for ID in "${WAVE2_IDS[@]}"; do
    wait_done "$ID"
done
REHOMES=$(job_rehomes "$FROZEN_JOB")
[[ -n "$REHOMES" && "$REHOMES" -ge 1 ]] \
    || fail "job $FROZEN_JOB's replica froze but reports rehomes=$REHOMES"

echo "failover-smoke: SIGCONT $FROZEN — its stale jobs must stop, then it must rejoin the ring"
kill -CONT "${REPLICA_PID[$FROZEN]}"
# On resume the frozen replica's jobs stop one of two ways: its lease
# watchdog fences them, or a cancel the router queued while it was
# frozen lands first. Either way one of the two counters rises.
FENCES_BEFORE=${FENCE_BASE[$FROZEN]}
CANCELS_BEFORE=${CANCEL_BASE[$FROZEN]}
STOPPED=""
for _ in $(seq 1 100); do
    FENCES=$(replica_metric "$FROZEN" redhip_serve_lease_fences_total)
    CANCELS=$(replica_metric "$FROZEN" redhip_serve_jobs_cancelled_total)
    if [[ -n "$FENCES" && "$FENCES" -gt "$FENCES_BEFORE" ]]; then
        STOPPED="fenced by its lease watchdog (lease fences $FENCES_BEFORE -> $FENCES)"
        break
    fi
    if [[ -n "$CANCELS" && "$CANCELS" -gt "$CANCELS_BEFORE" ]]; then
        STOPPED="cancelled without a fence (jobs cancelled $CANCELS_BEFORE -> $CANCELS)"
        break
    fi
    sleep 0.2
done
[[ -n "$STOPPED" ]] \
    || fail "$FROZEN resumed but neither fenced nor cancelled a job (lease fences $FENCES_BEFORE -> $FENCES, jobs cancelled $CANCELS_BEFORE -> $CANCELS)"
echo "failover-smoke: $FROZEN's stale jobs were $STOPPED"
wait_ring 2
for _ in $(seq 1 100); do
    READY=$(curl -fsS "$ROUTER/v1/cluster/status" | grep -c '"state": "ready"') || READY=0
    [[ "$READY" == 2 ]] && break
    sleep 0.2
done
[[ "$READY" == 2 ]] || fail "frozen replica never rejoined the ring (ready=$READY)"
echo "failover-smoke: drill 2 OK (all 3 jobs done, $FROZEN stopped its stale jobs and rejoined)"

# --- invariant: no double execution ------------------------------------------

# Every unique spec executed exactly once across the cluster: the
# killed replica finished nothing (killed while its first job ran) and the
# frozen one stopped its stale jobs on resume (drill 2 checks that it
# fenced or cancelled), so the survivors' executions_done counters must
# sum to the 11 unique specs.
TOTAL_EXEC=0
for NAME in "${!REPLICA_PID[@]}"; do
    EXEC=$(replica_metric "$NAME" redhip_serve_executions_done_total)
    FENCES=$(replica_metric "$NAME" redhip_serve_lease_fences_total)
    echo "failover-smoke:   $NAME executed $EXEC (lease fences: $FENCES)"
    TOTAL_EXEC=$((TOTAL_EXEC + EXEC))
done
UNIQUE=$(( ${#WAVE1_IDS[@]} + ${#WAVE2_IDS[@]} ))
[[ "$TOTAL_EXEC" == "$UNIQUE" ]] \
    || fail "executions summed over survivors = $TOTAL_EXEC, want $UNIQUE unique specs — a spec ran twice or got lost"
echo "failover-smoke: execution accounting OK ($TOTAL_EXEC == $UNIQUE unique specs)"

# --- invariant: bit-identical results ----------------------------------------

echo "failover-smoke: diffing all results against a fault-free single replica"
"$BIN_DIR/redhip-serve" -addr "$REF_ADDR" -workers 4 -queue 64 \
    >"$BIN_DIR/ref.log" 2>&1 &
REF_PID=$!
wait_healthy "http://$REF_ADDR"
ALL_IDS=("${WAVE1_IDS[@]}" "${WAVE2_IDS[@]}")
ALL_SPECS=("${WAVE1_SPECS[@]}" "${WAVE2_SPECS[@]}")
for I in "${!ALL_IDS[@]}"; do
    REF_OUT=$(curl -sS -X POST "http://$REF_ADDR/v1/jobs" -H 'Content-Type: application/json' \
        -d "$(spec_json "${ALL_SPECS[$I]}")")
    REF_ID=$(echo "$REF_OUT" | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
    [[ -n "$REF_ID" ]] || fail "reference submit failed: $REF_OUT"
    for _ in $(seq 1 300); do
        CODE=$(curl -sS -o "$BIN_DIR/ref_results" -w '%{http_code}' \
            "http://$REF_ADDR/v1/jobs/$REF_ID/results")
        [[ "$CODE" == 200 ]] && break
        sleep 0.2
    done
    [[ "$CODE" == 200 ]] || fail "reference job ${ALL_SPECS[$I]} never finished"
    curl -fsS "$ROUTER/v1/jobs/${ALL_IDS[$I]}/results" >"$BIN_DIR/routed_results" \
        || fail "router results fetch failed for ${ALL_IDS[$I]}"
    cmp -s "$BIN_DIR/routed_results" "$BIN_DIR/ref_results" \
        || fail "spec ${ALL_SPECS[$I]}: routed results differ from the single-replica reference"
done
echo "failover-smoke: results bit-identical across all $UNIQUE specs"

# --- loadgen mix through the router ------------------------------------------

echo "failover-smoke: seeded loadgen mix through the router"
cat >"$BIN_DIR/profile.json" <<'EOF'
{
  "name": "failover-mix",
  "seed": 7,
  "phases": [
    {"name": "steady", "duration_seconds": 2, "rate_per_sec": 10},
    {"name": "burst", "duration_seconds": 1, "rate_per_sec": 15, "model": "bursty"}
  ],
  "cohorts": [
    {"name": "a", "weight": 1,
     "spec": {"workloads":["mcf"],"schemes":["base"],"geometry":"smoke","refs_per_core":2000}},
    {"name": "b", "weight": 1,
     "spec": {"workloads":["mcf"],"schemes":["redhip"],"geometry":"smoke","refs_per_core":2100}},
    {"name": "c", "weight": 1,
     "spec": {"workloads":["mcf"],"schemes":["base","redhip"],"geometry":"smoke","refs_per_core":2200}}
  ]
}
EOF
"$BIN_DIR/redhip-load" -url "$ROUTER" -profile "$BIN_DIR/profile.json" \
    -report "$BIN_DIR/load_report.json" >/dev/null 2>"$BIN_DIR/load.log" \
    || fail "redhip-load run failed"
FIVEXX=$(sed -n 's/.*"server_5xx": *\([0-9]*\).*/\1/p' "$BIN_DIR/load_report.json" | tail -n1)
NETERR=$(sed -n 's/.*"network_errors": *\([0-9]*\).*/\1/p' "$BIN_DIR/load_report.json" | tail -n1)
ACCEPTED=$(sed -n 's/.*"accepted": *\([0-9]*\).*/\1/p' "$BIN_DIR/load_report.json" | tail -n1)
[[ "$FIVEXX" == 0 ]] || fail "loadgen saw $FIVEXX 5xx through the router"
[[ "$NETERR" == 0 ]] || fail "loadgen saw $NETERR network errors through the router"
[[ -n "$ACCEPTED" && "$ACCEPTED" -ge 1 ]] || fail "loadgen had no accepted submissions"
grep -q '"replicas"' "$BIN_DIR/load_report.json" \
    || fail "loadgen report lacks per-replica accounting (X-RedHiP-Replica missing?)"
echo "failover-smoke: loadgen OK ($ACCEPTED accepted, zero 5xx, zero network errors)"

# --- router /metrics ---------------------------------------------------------

echo "failover-smoke: scraping the router's /metrics"
METRICS=$(curl -fsS "$ROUTER/metrics") || fail "router /metrics scrape failed"
for M in \
    redhip_router_jobs_submitted_total \
    redhip_router_jobs_deduped_total \
    redhip_router_jobs_rejected_total \
    redhip_router_proxied_rejections_total \
    redhip_router_rehomes_total \
    redhip_router_watch_reconnects_total \
    redhip_router_jobs_done_total \
    redhip_router_jobs_failed_total \
    redhip_router_jobs_cancelled_total \
    redhip_router_members \
    redhip_router_ring_size \
    redhip_router_jobs_tracked; do
    echo "$METRICS" | grep -q "^# TYPE $M " || fail "router metric family $M missing"
done
echo "$METRICS" | grep -Eq '^redhip_router_rehomes_total [1-9]' \
    || fail "router counted no re-homes after the kill and partition drills"
echo "$METRICS" | grep -Eq '^redhip_router_members\{state="ready"\} [1-9]' \
    || fail "router reports no ready members"

echo "failover-smoke: OK"
