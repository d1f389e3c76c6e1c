#!/usr/bin/env bash
# bench_pairs.sh — paired benchmark comparison of the checkout against
# an earlier revision. Run from the repository root:
#
#   bash scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seed]
#
# It checks <parent-rev> out into a git worktree under .bench_build/,
# then runs `bash benchmark/run.sh --workload <workload> --seed <seed>
# --trace 0` <pairs> times on each side, alternating the sides and
# flipping which one goes first in every other pair, so drift on a
# shared host lands on both. For each end-to-end metric BENCHMARK.json
# names it prints both medians, the parent's q1–q3, how many pairs the
# checkout won (better in BENCHMARK.json's sense) and the ratio of the
# medians, with the host's CPU count, the Go version and both
# revisions. Every run's JSON line is kept in .bench_build/pairs/.
#
# BENCH_SECONDS sets the measurement window (default 25, as
# BENCHMARK.json runs it). The worktree is removed on exit.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
	echo "usage: bash scripts/bench_pairs.sh <parent-rev> <workload> <pairs> [seed]" >&2
	exit 2
fi
if [[ ! -f BENCHMARK.json || ! -f benchmark/run.sh ]]; then
	echo "bench_pairs.sh: run from the repository root" >&2
	exit 2
fi
PARENT_REV=$(git rev-parse --verify "$1^{commit}")
WORKLOAD=$2
PAIRS=$3
SEED=${4:-1}
SECONDS_WINDOW=${BENCH_SECONDS:-25}
[[ "$PAIRS" =~ ^[1-9][0-9]*$ ]] || { echo "bench_pairs.sh: pairs must be a positive integer" >&2; exit 2; }

CHANGE_REV=$(git rev-parse HEAD)
if [[ -n "$(git status --porcelain --untracked-files=no)" ]]; then
	CHANGE_REV="$CHANGE_REV+uncommitted"
fi

OUT="$PWD/.bench_build/pairs"
TREE="$OUT/parent-${PARENT_REV:0:12}"
mkdir -p "$OUT"
git worktree remove --force "$TREE" 2>/dev/null || true
git worktree prune
git worktree add --detach --quiet "$TREE" "$PARENT_REV"
cleanup() { git worktree remove --force "$TREE" 2>/dev/null || true; }
trap cleanup EXIT

RUNS="$OUT/$WORKLOAD-seed$SEED-$(date +%Y%m%dT%H%M%S).jsonl"
run_side() { # args: side (parent|change), directory
	local line
	line=$(cd "$2" && bash benchmark/run.sh --workload "$WORKLOAD" --seed "$SEED" \
		--seconds "$SECONDS_WINDOW" --trace 0 2>/dev/null | tail -n1) || true
	[[ -n "$line" ]] || line='{"correct":false,"metrics":{}}'
	printf '{"side":"%s","pair":%d,"run":%s}\n' "$1" "$PAIR" "$line" >>"$RUNS"
}

for ((PAIR = 0; PAIR < PAIRS; PAIR++)); do
	if ((PAIR % 2 == 0)); then
		run_side parent "$TREE"
		run_side change "$PWD"
	else
		run_side change "$PWD"
		run_side parent "$TREE"
	fi
	echo "bench_pairs.sh: pair $((PAIR + 1))/$PAIRS done" >&2
done

python3 - "$RUNS" BENCHMARK.json "$PARENT_REV" "$CHANGE_REV" "$WORKLOAD" "$SEED" "$SECONDS_WINDOW" "$(nproc)" "$(go version)" <<'PY'
import json, statistics, sys

runs_path, bench_path, parent, change, workload, seed, window, ncpu, gover = sys.argv[1:]
runs = [json.loads(l) for l in open(runs_path)]
metrics = json.load(open(bench_path))["end_to_end"]
sides = {"parent": {}, "change": {}}
correct = {"parent": 0, "change": 0}
for r in runs:
    sides[r["side"]][r["pair"]] = r["run"]
    correct[r["side"]] += bool(r["run"].get("correct"))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]

pairs = sorted(set(sides["parent"]) & set(sides["change"]))
print(f"workload {workload}, seed {seed}, {window} s windows, {len(pairs)} pairs")
print(f"parent {parent}")
print(f"change {change}")
print(f"host: nproc {ncpu}, {gover}")
print(f"correct runs: parent {correct['parent']}/{len(pairs)}, change {correct['change']}/{len(pairs)}")
print(f"{'metric':<18} {'parent':>10} {'parent q1-q3':>21} {'change':>10} {'wins':>7} {'ratio':>7}")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    got = [(sides["parent"][p]["metrics"].get(name, {}).get("value"),
            sides["change"][p]["metrics"].get(name, {}).get("value")) for p in pairs]
    got = [(a, b) for a, b in got if a is not None and b is not None]
    if not got:
        print(f"{name:<18} {'(not reported)':>10}")
        continue
    pa, ch = [a for a, _ in got], [b for _, b in got]
    wins = sum((b < a) if lower else (b > a) for a, b in got)
    q1, q3 = quartiles(pa)
    mp, mc = statistics.median(pa), statistics.median(ch)
    ratio = mc / mp if mp else float("nan")
    print(f"{name:<18} {mp:>10.4g} {f'[{q1:.4g}-{q3:.4g}]':>21} {mc:>10.4g} {f'{wins}/{len(got)}':>7} {ratio:>7.3f}")
print(f"runs: {runs_path}")
PY
