#!/usr/bin/env bash
# Runs every workload of the end-to-end benchmark, one process each, and
# prints each one's metrics by name and unit.
#
# Usage: bash e2ebench/run_all.sh --seed <n> --seconds <s> [--trace <0|1>]
set -euo pipefail
cd "$(dirname "$0")/.."
for w in shared_mc independent_mc lane_batch scale; do
    echo "== $w"
    cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
        --workload "$w" "$@"
done
