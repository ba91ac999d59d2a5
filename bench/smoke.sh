#!/usr/bin/env bash
# Smoke-runs every bench binary with --quick --metrics-out (each must exit
# cleanly and write a parseable JSON metrics snapshot), then holds the
# benches to their gates: sweep determinism across --jobs, the multi-tenant
# report, trace export + attribution, parallel sweep speedup, the four
# micro_core ratios, sub-linear scaling in N and batched posix I/O. The
# gate table and its thresholds live in bench/gates.py; reports land in
# BUILD_DIR/BENCH_*.json.
#
# Usage: bench/smoke.sh [BUILD_DIR]   (default: build)
set -u

BUILD_DIR="${1:-build}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "no such directory: $BUILD_DIR/bench (build first: cmake --preset default && cmake --build --preset default)" >&2
  exit 2
fi
if ! command -v python3 > /dev/null; then
  echo "bench/smoke.sh needs python3 to run its gates" >&2
  exit 2
fi

exec python3 "$(dirname "$0")/gates.py" smoke "$BUILD_DIR"
