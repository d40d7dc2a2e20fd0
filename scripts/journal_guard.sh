#!/usr/bin/env sh
# Journal-on delta-latency guard for the placement service: re-measures
# BenchmarkPlacement_Journal/on briefly and fails when its ns/op exceeds
# the budget recorded in BENCH_placement.json by more than the recorded
# tolerance. The tolerance is deliberately wide (200%): the guard exists
# to catch structural regressions on the journaled delta path (an fsync,
# a reflection-based encoder, an accidental full-state write per delta),
# not machine-load noise.
#
# Usage: sh scripts/journal_guard.sh   (run from anywhere; cds to the root)

set -e
cd "$(dirname "$0")/.."

BUDGET=$(awk -F': ' '/"journal_on_budget_ns"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' BENCH_placement.json)
PCT=$(awk -F': ' '/"journal_max_regression_pct"/ { gsub(/[^0-9]/, "", $2); print $2; exit }' BENCH_placement.json)
if [ -z "$BUDGET" ] || [ -z "$PCT" ]; then
	echo "journal_guard: no journal_on_budget_ns/journal_max_regression_pct in BENCH_placement.json" >&2
	exit 1
fi

OUT=$(go test -run '^$' -bench 'BenchmarkPlacement_Journal/on$' -benchtime 20000x .)
echo "$OUT"
# ns/op may print with a fractional part; strip it for the integer
# compare below.
CUR=$(echo "$OUT" | awk '/^BenchmarkPlacement_Journal/ {
	for (i = 1; i < NF; i++) if ($(i + 1) == "ns/op") { sub(/\..*$/, "", $i); print $i }
}')
if [ -z "$CUR" ]; then
	echo "journal_guard: benchmark produced no ns/op figure" >&2
	exit 1
fi

LIMIT=$((BUDGET + BUDGET * PCT / 100))
if [ "$CUR" -gt "$LIMIT" ]; then
	echo "journal_guard: FAIL — journal-on delta pair ${CUR}ns exceeds budget ${BUDGET}ns by more than $PCT% (limit ${LIMIT}ns)" >&2
	echo "journal_guard: if the slowdown is intentional, regenerate the budget with scripts/bench.sh" >&2
	exit 1
fi
echo "journal_guard: OK — journal-on delta pair ${CUR}ns within budget ${BUDGET}ns (+$PCT% = ${LIMIT}ns)"
