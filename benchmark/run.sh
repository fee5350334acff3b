#!/usr/bin/env bash
# The one command: build release, run all six workloads at the
# BENCHMARK.json seconds untraced, then traced, print every metric with
# its unit. Exits non-zero if any output check failed or the printed
# names/units are not exactly the ones BENCHMARK.json declares.
# Arguments are passed on (e.g. --seed 3, --seconds 5, --smoke).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
target_dir="${CARGO_TARGET_DIR:-target}"
exec "$target_dir/release/bh-benchmark" --all "$@"
