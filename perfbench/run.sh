#!/usr/bin/env bash
# Build the benchmark and the `atss` tool from this checkout, then run one
# workload:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the root of the checkout. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's messages go to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p at_cli --bin atss >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" --atss "$CARGO_TARGET_DIR/release/atss"
