#!/usr/bin/env bash
# Regenerate the evaluation-pipeline benchmarks and compare against the
# committed BENCH_RESULTS.json. resparc-bench -fig bench prints the fresh
# measurements, a delta table against the previous file, and then merges the
# fresh entries into the file (matching names are replaced, history is kept).
#
# Every row is sampled three times (median = ns_per_op, fastest =
# ns_per_op_min). A benchmark whose fastest fresh sample runs more than 10%
# slower than its previous entry's median fails the script (and with it
# scripts/ci.sh): machine noise slows single samples, a real regression
# slows all of them. Benchmarks are still timing-sensitive — on a loaded
# machine every sample can drift — so an explicit escape hatch exists:
#
#   ALLOW_BENCH_REGRESS=1 ./scripts/bench_compare.sh
#
# downgrades regressions to the printed delta table only. Pass any
# resparc-bench flags through, e.g. -quick for a fast smoke pass.
set -euo pipefail
cd "$(dirname "$0")/.."

check=(-check)
if [ "${ALLOW_BENCH_REGRESS:-0}" = "1" ]; then
    echo "ALLOW_BENCH_REGRESS=1: regressions reported but not fatal" >&2
    check=()
fi

go run ./cmd/resparc-bench -fig bench "${check[@]}" "$@"

# Fleet SLO rows (fleet/<model>/<tier>): modeled in virtual time, so the
# same -seed reproduces them bit-identically. The delta table against the
# previous rows is informational for now — attainment shifts when the
# committed scenario changes, so it warns rather than fails.
echo "== fleet SLO rows (delta is warn-only)"
go run ./cmd/resparc-bench -fig fleet "$@"

# Event-engine rows (event/latency, event/shard, event/noc): modeled cycle
# rows — the serial-sum and pipelined reductions of the accountant's stage
# grid, the sharded makespans and the NoC fabric — all pure functions of the
# -seed. Cycle deltas only move when the timing model changes, so the table
# is warn-only — reviewers eyeball it in the PR.
echo "== event-engine rows (delta is warn-only)"
go run ./cmd/resparc-bench -fig event "$@"

# Lifetime self-healing recovery (FAULT_RESULTS.json "lifetime" section):
# the campaign is a pure function of the -seed, and the recovery table shows
# how much of the end-of-life agreement loss each repair policy wins back.
# Warn-only for the same reason as the fleet rows — the numbers only move
# when the repair ladder or the committed campaign parameters change, and a
# reviewer should eyeball the delta rather than have CI guess a threshold.
echo "== lifetime repair recovery (delta is warn-only)"
go run ./cmd/resparc-bench -fig lifetime "$@"

# Mapper-quality rows (mapper/<bench>/<greedy|annealed>): placements and the
# energy/EDP measurements are pure functions of the -seed. The delta table is
# warn-only — EDP moves when the cost model or the annealer changes, and the
# greedy-vs-annealed gap in the main table is the number a reviewer checks.
echo "== mapper-quality rows (delta is warn-only)"
go run ./cmd/resparc-bench -fig mapper "$@"
