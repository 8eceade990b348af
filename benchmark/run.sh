#!/usr/bin/env bash
# Builds dbwipes-server and the benchmark driver in release mode, then runs
# the driver. Every argument is passed through; see README.md.
#
#   bash benchmark/run.sh --workload sensor-cold --seed 1 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    -p dbwipes-server -p dbwipes-benchmark 1>&2
exec "$CARGO_TARGET_DIR/release/dbwipes-benchmark" "$@"
