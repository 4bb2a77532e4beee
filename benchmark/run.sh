#!/usr/bin/env bash
# Builds the perf ledger (release, offline, no external crates) and runs
# it from the repo root.
#
#   benchmark/run.sh [--seed S] [--workload W] [--seconds N] [--out DIR]
#       every workload untraced, then traced; prints every metric and
#       writes benchmark/out/results.json + trace.json
#   benchmark/run.sh --twice [same options]
#       the full set twice; prints each end-to-end metric's difference
#       against its bound and exits non-zero if any exceeds it
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one pass over one workload, ending in the driver's result line
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ "${1:-}" = "--twice" ]; then
    shift
    set -- twice "$@"
fi
if [ -z "${PHASTLANE_BENCH_COMMIT:-}" ] && [ -e .git ]; then
    PHASTLANE_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || true)"
fi
export PHASTLANE_BENCH_COMMIT="${PHASTLANE_BENCH_COMMIT:-unknown}"
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
