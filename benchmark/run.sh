#!/usr/bin/env bash
# Builds the benchmark package (offline, into its own target directory) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload; last stdout line is the result object
#   benchmark/run.sh [--seed N] [--smoke] [--seconds S]              all four workloads -> benchmark/results/<rev>-<seed>.json
#   benchmark/run.sh compare A.json B.json                           applies every bound to two result files
#
# Exit code: 0 measured and correct; 1 a run failed its oracle (or compare found a
# regression); anything else: the benchmark could not be built or started.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/benchmark"

if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" suite "$@"
