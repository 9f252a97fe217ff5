#!/usr/bin/env bash
# Build the benchmark from this checkout's sources (when needed) and run
# one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build output goes to stderr; stdout is
# rina_bench's JSON lines, the last of them the run's summary. The build
# tree is $CARGO_TARGET_DIR/rina_bench (default .bench_build/rina_bench);
# a traced run also leaves its spans there, in spans.jsonl.
set -euo pipefail

if [[ ! -f src/node/network.hpp || ! -f benchmark/CMakeLists.txt ]]; then
  echo "run.sh: run from the repository root; src/ and benchmark/ must both exist" >&2
  exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}/rina_bench"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2 || exit 2
fi
cmake --build "$build" --target rina_bench -j 2 >&2 || exit 2

exec "$build/rina_bench" "$@" --spans "$build/spans.jsonl"
