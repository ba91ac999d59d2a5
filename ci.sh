#!/usr/bin/env bash
# Full local CI: the tier-1 test suite and the bench smoke run under the
# release build and both sanitizer presets, a line-coverage artifact from
# the gcov-instrumented preset, and a cross-run event-core throughput gate.
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
    # Drive the sweep engine's threaded path (workers, stealing, fold
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

# Ledger-correctness lane: the benchmark's traced pass on the two simulated
# workloads that move the most payload bytes through the datagram path.
# Every delivery is byte-checked, and the traced replica of each transfer
# must reproduce run_multicast's simulated seconds, events and data
# packets exactly; two seconds of each exercise all of it.
echo "=== ledger-correctness lane ==="
if [ -n "$PYTHON" ]; then
  for workload in sim_paper sim_lossy; do
    ledger_out="$("$PYTHON" bench/ledger/run.py --workload "$workload" --seed 1 \
      --seconds 2 --trace 1)"
    "$PYTHON" - "$workload" "$ledger_out" <<'EOF'
import json, sys

workload, out = sys.argv[1], sys.argv[2]
result = json.loads(out.strip().splitlines()[-1])
if result.get("correct") is not True or result.get("failed") != 0:
    sys.exit(f"ledger-correctness: {workload}: correct={result.get('correct')} "
             f"failed={result.get('failed')}")
print(f"ledger-correctness: {workload} ok ({result['attempted']} transfers)")
EOF
  done
else
  echo "ledger-correctness: skipped (python3 missing)"
fi

# Event-core throughput regression gate, across runs. bench/smoke.sh holds
# the pooled core to 2x the in-process legacy heap (machine-independent);
# this gate additionally compares the pooled core's absolute events/sec
# against the last accepted run on *this* machine and fails on a >5% drop.
# The baseline seeds itself on first run and is refreshed by deleting it
# (it is per-machine state, not a committed artifact).
CORE_REPORT=build/BENCH_sim_core.json
CORE_BASELINE=build/BENCH_sim_core.baseline.json
echo "=== event-core throughput gate ==="
if [ -f "$CORE_REPORT" ] && [ -n "$PYTHON" ]; then
  "$PYTHON" - "$CORE_REPORT" "$CORE_BASELINE" <<'EOF'
import json, os, sys

with open(sys.argv[1]) as f:
    current = json.load(f)["pooled_events_per_sec"]
baseline_path = sys.argv[2]
if not os.path.exists(baseline_path):
    with open(sys.argv[1]) as f, open(baseline_path, "w") as out:
        out.write(f.read())
    print(f"core-gate: baseline seeded at {current / 1e6:.1f}M events/s")
    sys.exit(0)
with open(baseline_path) as f:
    baseline = json.load(f)["pooled_events_per_sec"]
ratio = current / baseline
print(f"core-gate: {current / 1e6:.1f}M events/s vs baseline "
      f"{baseline / 1e6:.1f}M ({ratio:.3f}x, floor 0.95)")
if ratio < 0.95:
    print("core-gate: pooled event core regressed more than 5%", file=sys.stderr)
    sys.exit(1)
# Ratchet the baseline up so a slow creep cannot hide under the floor.
if current > baseline:
    with open(sys.argv[1]) as f, open(baseline_path, "w") as out:
        out.write(f.read())
EOF
else
  echo "core-gate: skipped ($CORE_REPORT or python3 missing)"
fi

# Roster/tracker throughput regression gate, across runs. bench/smoke.sh's
# scalability gate holds per-event cost sub-linear in N (shape, machine-
# independent); this gate additionally compares the absolute events/sec the
# XL sweep sustains against the last accepted run on *this* machine and
# fails on a >5% drop — the guard against an O(log N)-shaped but
# constant-factor-slower accounting tier. Same self-seeding ratcheted
# baseline protocol as the event-core gate above.
XL_REPORT=build/BENCH_scalability.json
XL_BASELINE=build/BENCH_scalability.baseline.json
echo "=== scalability events/sec gate ==="
if [ -f "$XL_REPORT" ] && [ -n "$PYTHON" ]; then
  "$PYTHON" - "$XL_REPORT" "$XL_BASELINE" <<'EOF'
import json, os, sys

def events_per_sec(path):
    with open(path) as f:
        rows = [r for r in json.load(f)["rows"] if r.get("completed")]
    wall = sum(r["wall_seconds"] for r in rows)
    if not rows or wall <= 0:
        sys.exit(f"scalability-espec-gate: no completed rows in {path}")
    return sum(r["events"] for r in rows) / wall

current = events_per_sec(sys.argv[1])
baseline_path = sys.argv[2]
if not os.path.exists(baseline_path):
    with open(sys.argv[1]) as f, open(baseline_path, "w") as out:
        out.write(f.read())
    print(f"scalability-espec-gate: baseline seeded at {current / 1e6:.2f}M events/s")
    sys.exit(0)
baseline = events_per_sec(baseline_path)
ratio = current / baseline
print(f"scalability-espec-gate: {current / 1e6:.2f}M events/s vs baseline "
      f"{baseline / 1e6:.2f}M ({ratio:.3f}x, floor 0.95)")
if ratio < 0.95:
    print("scalability-espec-gate: XL sweep events/sec regressed more than 5%",
          file=sys.stderr)
    sys.exit(1)
# Ratchet the baseline up so a slow creep cannot hide under the floor.
if current > baseline:
    with open(sys.argv[1]) as f, open(baseline_path, "w") as out:
        out.write(f.read())
EOF
else
  echo "scalability-espec-gate: skipped ($XL_REPORT or python3 missing)"
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
