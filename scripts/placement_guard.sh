#!/usr/bin/env sh
# Decision-latency guard for the standalone placement service:
# re-measures BenchmarkPlacement_Decide/readers4 briefly and fails when
# its median (p50_ns) exceeds the budget recorded in BENCH_placement.json
# by more than the recorded tolerance (100%). The guard holds the median,
# not the p99: four readers plus the delta writer outnumber the cores of
# a small host, so the tail measures OS preemption — on a 2-vCPU host the
# 4-reader p99 read 0.5–4.6 ms across consecutive runs of one tree, while
# the p50 stayed within 48–52 µs. The median decision is not preempted,
# so it moves only when the decision path itself gets slower.
#
# Usage: sh scripts/placement_guard.sh   (run from anywhere; cds to the root)

set -e
cd "$(dirname "$0")/.."

# The key name itself contains digits, so strip digits from the value
# field only — not the whole line.
BUDGET=$(awk -F': ' '/"p50_budget_ns"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' BENCH_placement.json)
PCT=$(awk -F': ' '/"max_regression_pct"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' BENCH_placement.json)
if [ -z "$BUDGET" ] || [ -z "$PCT" ]; then
	echo "placement_guard: no p50_budget_ns/max_regression_pct in BENCH_placement.json" >&2
	exit 1
fi

OUT=$(go test -run '^$' -bench 'BenchmarkPlacement_Decide/readers4$' -benchtime 2000x .)
echo "$OUT"
# p50_ns is a custom metric and may print with a fractional part; strip
# it so the shell integer compare below works.
CUR=$(echo "$OUT" | awk '/^BenchmarkPlacement_Decide/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "p50_ns") { sub(/\..*$/, "", $i); print $i }
}')
if [ -z "$CUR" ]; then
	echo "placement_guard: benchmark produced no p50_ns figure" >&2
	exit 1
fi

LIMIT=$((BUDGET + BUDGET * PCT / 100))
if [ "$CUR" -gt "$LIMIT" ]; then
	echo "placement_guard: FAIL — p50 ${CUR}ns exceeds budget ${BUDGET}ns by more than $PCT% (limit ${LIMIT}ns)" >&2
	echo "placement_guard: if the slowdown is intentional, regenerate the budget with scripts/bench.sh" >&2
	exit 1
fi
echo "placement_guard: OK — p50 ${CUR}ns within budget ${BUDGET}ns (+$PCT% = ${LIMIT}ns)"
