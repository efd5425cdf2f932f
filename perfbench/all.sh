#!/usr/bin/env bash
# Run every workload once with tracing off (end-to-end metrics) and once
# with tracing on (per-layer metrics), from the root of the checkout:
#   bash perfbench/all.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-20}"
for workload in cold-construct method-sweep daemon-serve tune-warm; do
    for trace in 0 1; do
        bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
