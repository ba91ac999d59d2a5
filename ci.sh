#!/usr/bin/env bash
# Full local CI: the tier-1 test suite and the bench smoke run under the
# release build and both sanitizer presets, a line-coverage artifact from
# the gcov-instrumented preset, ledger correctness and two cross-run
# throughput ratchets.
#
# Usage: ./ci.sh [preset...]   (default: default asan tsan coverage)
set -eu

cd "$(dirname "$0")"
PRESETS=("${@:-default}")
if [ "$#" -eq 0 ]; then
  PRESETS=(default asan tsan coverage)
fi

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"
PYTHON="$(command -v python3 || true)"

for preset in "${PRESETS[@]}"; do
  case "$preset" in
    default) build_dir=build ;;
    *) build_dir="build-$preset" ;;
  esac
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] ctest ==="
  ctest --preset "$preset" -j "$JOBS"
  if [ "$preset" = coverage ]; then
    # The coverage lane's artifact is the line-coverage report, not the
    # bench smoke (the instrumented binaries are slow and the smoke run
    # would only re-count the same lines the tests already hit).
    echo "=== [coverage] report ==="
    ./coverage.sh "$build_dir"
    continue
  fi
  if [ "$preset" = asan ] || [ "$preset" = tsan ]; then
    # The group-churn matrix again, under the memory/race detectors and
    # sharded across processes: the randomized join/leave/crash scripts
    # drive ring re-rotation and tree splicing around evicted receivers,
    # where a stale pointer into a departed node's state is a sanitizer
    # report, not a silent corruption. (ctest above runs the same binary;
    # this lane re-runs it shard-parallel so the sanitizer sees the full
    # matrix even when ctest's scheduler batched it onto one core.)
    echo "=== [$preset] churn matrix (4-way sharded) ==="
    churn_pids=()
    for shard in 0 1 2 3; do
      GTEST_TOTAL_SHARDS=4 GTEST_SHARD_INDEX="$shard" \
        "$build_dir/tests/churn_test" \
        > "$build_dir/churn_shard_$shard.log" 2>&1 &
      churn_pids+=("$!")
    done
    churn_fail=0
    for pid in "${churn_pids[@]}"; do
      wait "$pid" || churn_fail=1
    done
    if [ "$churn_fail" -ne 0 ]; then
      tail -n 30 "$build_dir"/churn_shard_*.log
      echo "[$preset] churn matrix failed"
      exit 1
    fi
  fi
  if [ "$preset" = tsan ]; then
    # Drive the sweep engine's threaded path (workers, FIFO queue, fold
    # cursor) under TSan with more workers than cores, so interleavings
    # the ctest lane may not hit get exercised. Table/metrics correctness
    # is covered elsewhere; this lane exists for the race detector.
    echo "=== [tsan] parallel sweep smoke (--jobs=4) ==="
    for sweep_bin in fig20_tree_small abl_fault_crash; do
      "$build_dir/bench/$sweep_bin" --quick --trials=1 --jobs=4 \
        "--metrics-out=$build_dir/BENCH_tsan_sweep_$sweep_bin.json" > /dev/null
    done
  fi
  echo "=== [$preset] bench smoke ==="
  bench/smoke.sh "$build_dir"
done

# Posix-parity lane: the sim-vs-real harness end-to-end on this machine's
# loopback (ctest runs parity_test per preset already; this lane re-runs
# the default-preset binary with the netem stage requested, so a CI with
# tc + CAP_NET_ADMIN also proves recovery over a genuinely lossy kernel
# path — delay + loss shaped onto lo. Without the capability the netem
# stage records a skip inside the report, never a failure; opt in/out
# explicitly with RMC_PARITY_NETEM=1/0.)
echo "=== posix-parity lane ==="
if [ -x build/tests/parity_test ]; then
  RMC_PARITY_NETEM="${RMC_PARITY_NETEM:-1}" build/tests/parity_test
else
  echo "posix-parity: skipped (build/tests/parity_test missing)"
fi

# Ledger correctness (the benchmark's traced pass, byte-checked, on
# sim_paper, sim_lossy, posix_bulk and posix_small) and the two cross-run
# throughput ratchets (event core, XL sweep) against the last accepted run
# on this machine. The gate table lives in bench/gates.py.
echo "=== ledger-correctness + throughput ratchets ==="
if [ -n "$PYTHON" ]; then
  "$PYTHON" bench/gates.py ci build
else
  echo "ci gates: skipped (python3 missing)"
fi

# Static analysis over the protocol core (.clang-tidy: modernize + bugprone
# + performance). Gated on the tool being installed — some build images
# ship only the compiler — and on the default preset's compile database.
echo "=== clang-tidy (src/rmcast) ==="
if command -v clang-tidy > /dev/null 2>&1; then
  if [ -f build/compile_commands.json ]; then
    find src/rmcast -name '*.cc' -print0 \
      | xargs -0 -P "$JOBS" -n 1 clang-tidy -p build --quiet
    echo "clang-tidy: clean"
  else
    echo "clang-tidy: skipped (build/compile_commands.json missing; configure the default preset first)"
  fi
else
  echo "clang-tidy: skipped (not installed)"
fi

echo "ci: all presets passed (${PRESETS[*]})"
