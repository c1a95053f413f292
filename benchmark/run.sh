#!/bin/sh
# Builds the benchmark and runs the whole set: every workload untraced, then
# traced. Metrics go to stdout; benchmark/out/ receives summary.json,
# ledger.json and one <workload>.trace.json per workload.
#
#   benchmark/run.sh [--seed <u64>] [--seconds <n>] [--check-repeat]
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
