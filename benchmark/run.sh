#!/usr/bin/env bash
# Runs every workload, untraced and traced, and appends each run's record
# to a result set that `qce-benchmark compare` reads.
#
#   benchmark/run.sh [OUT.jsonl] [REPEATS] [SEED] [SECONDS]
#
# Defaults: benchmark/out/results.jsonl, 1 repeat, seed 2020, 10 s.
set -euo pipefail
cd "$(dirname "$0")/.."

out=${1:-benchmark/out/results.jsonl}
repeats=${2:-1}
seed=${3:-2020}
seconds=${4:-10}

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/qce-benchmark

status=0
for workload in steady_blocking async_window replan_churn fleet_classed_burst wall_pingpong; do
    for _ in $(seq "$repeats"); do
        for trace in 0 1; do
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" --out "$out" || status=1
        done
    done
done
exit $status
