#!/usr/bin/env bash
# Builds the benchmark, runs two sets of every workload and prints whether
# each (metric, workload) pair agrees within its BENCHMARK.json bound, then
# runs the traced pass (per-layer metrics, ledgers, span files under
# benchmark/out/). Exits non-zero on a correctness failure or a
# disagreement.
#
# Usage: benchmark/run.sh [--seed S] [--workload W]... [--seconds N]
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/slip-benchmark"
status=0
"$bin" --sets 2 "$@" || status=$?
"$bin" --trace 1 "$@" || status=$?
exit "$status"
