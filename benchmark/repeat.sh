#!/usr/bin/env bash
# Repeatability: two interleaved sets of N untraced runs per workload
# (default 5), both walking seeds 1..N. Writes results/repeat.json with
# each set's median, quartiles and spread per (metric, workload) and how
# much worse the second median is; exits non-zero if that, or a spread,
# exceeds the metric's bound in BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
target_dir="${CARGO_TARGET_DIR:-target}"
exec "$target_dir/release/bh-benchmark" --repeat --runs "${1:-5}" "${@:2}"
