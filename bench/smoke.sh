#!/usr/bin/env bash
# Smoke-runs every bench binary with --quick --metrics-out and checks that
# each one exits cleanly and writes a parseable JSON metrics snapshot.
#
# Usage: bench/smoke.sh [BUILD_DIR]   (default: build)
set -u

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"

if [ ! -d "$BENCH_DIR" ]; then
  echo "no such directory: $BENCH_DIR (build first: cmake --preset default && cmake --build --preset default)" >&2
  exit 2
fi

PYTHON="$(command -v python3 || true)"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

pass=0
fail=0
for bin in "$BENCH_DIR"/*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  case "$name" in
    micro_core) continue ;;  # Google-benchmark harness: no --metrics-out
    *.*) continue ;;         # skip non-binaries (CMake leftovers)
  esac

  snapshot="$TMP_DIR/$name.json"
  if ! "$bin" --quick "--metrics-out=$snapshot" > "$TMP_DIR/$name.out" 2>&1; then
    echo "FAIL $name: non-zero exit"
    sed 's/^/  | /' "$TMP_DIR/$name.out" | tail -5
    fail=$((fail + 1))
    continue
  fi
  if [ ! -s "$snapshot" ]; then
    echo "FAIL $name: metrics snapshot missing or empty"
    fail=$((fail + 1))
    continue
  fi
  if [ -n "$PYTHON" ] && ! "$PYTHON" -m json.tool "$snapshot" > /dev/null 2>&1; then
    echo "FAIL $name: metrics snapshot is not valid JSON"
    fail=$((fail + 1))
    continue
  fi
  echo "ok   $name"
  pass=$((pass + 1))
done

# Sweep determinism gate: --jobs=N must be byte-identical to --jobs=1, in
# the printed table, the merged metrics snapshot and the exported trace
# (the sweep engine's core contract; tests/sweep_test.cc proves it at the
# API level, this proves it end-to-end through real bench binaries). Five
# representatives cover the harness shapes: a Measurement grid (fig10), a
# RunHandle table (tab02), an ablation sweep (abl_loss_sweep), the
# erasure-coded family under burst loss (abl_ec_crossover, whose quick
# grid also re-proves byte-correct FEC decode + the repair crossover —
# the binary exits non-zero if either breaks), and the declarative
# spine-leaf fabric at 10^3 receivers (fig_scalability_xl, whose
# wall-clock side channel is deliberately NOT requested here: stdout must
# be identical even though wall timings never are), and the multi-tenant
# mix (fig_multitenant — hundreds of sessions with churn multiplexed over
# one fabric; its per-cell report side channel gets its own gate below).
# The metrics snapshots are compared after dropping the meta "jobs" line —
# the one field that legitimately records the worker count.
strip_jobs_meta() { grep -v '^    "jobs": ' "$1"; }
for name in fig10_ack_window tab02_control_load abl_loss_sweep abl_ec_crossover fig_scalability_xl fig_multitenant; do
  bin="$BENCH_DIR/$name"
  [ -x "$bin" ] || continue
  if "$bin" --quick --jobs=1 "--metrics-out=$TMP_DIR/$name.serial.json" \
       "--trace-out=$TMP_DIR/$name.serial.trace.json" \
       > "$TMP_DIR/$name.serial.out" 2> /dev/null \
     && "$bin" --quick --jobs=4 "--metrics-out=$TMP_DIR/$name.parallel.json" \
       "--trace-out=$TMP_DIR/$name.parallel.trace.json" \
       > "$TMP_DIR/$name.parallel.out" 2> /dev/null \
     && cmp -s "$TMP_DIR/$name.serial.out" "$TMP_DIR/$name.parallel.out" \
     && [ "$(strip_jobs_meta "$TMP_DIR/$name.serial.json")" = \
          "$(strip_jobs_meta "$TMP_DIR/$name.parallel.json")" ] \
     && cmp -s "$TMP_DIR/$name.serial.trace.json" \
          "$TMP_DIR/$name.parallel.trace.json"; then
    echo "ok   $name sweep determinism (--jobs=4 == --jobs=1, trace included)"
    pass=$((pass + 1))
  else
    echo "FAIL $name: --jobs=4 output differs from --jobs=1"
    diff "$TMP_DIR/$name.serial.out" "$TMP_DIR/$name.parallel.out" | head -5
    fail=$((fail + 1))
  fi
done

# Multi-tenant report gate: fig_multitenant's side channel (the
# BENCH_multitenant.json artifact) carries every cell's per-tenant
# completion table, Jain fairness index and switch-queue contention
# matrix. Like stdout, it is derived from deterministic runs, so it must
# be byte-identical across --jobs values; and every tenant of every cell
# must have reported a DeliveryReport (a stalled sender would show up as
# an incomplete cell here before it shows up anywhere else).
MT="$BENCH_DIR/fig_multitenant"
if [ -x "$MT" ]; then
  mt_report="$BUILD_DIR/BENCH_multitenant.json"
  mt_ok=1
  "$MT" --quick --jobs=1 "--report-out=$mt_report" > /dev/null 2>&1 || mt_ok=0
  "$MT" --quick --jobs=4 "--report-out=$TMP_DIR/multitenant.parallel.json" \
    > /dev/null 2>&1 || mt_ok=0
  cmp -s "$mt_report" "$TMP_DIR/multitenant.parallel.json" || mt_ok=0
  if [ "$mt_ok" -eq 1 ] && [ -n "$PYTHON" ]; then
    "$PYTHON" - "$mt_report" <<'EOF' || mt_ok=0
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
cells = doc.get("cells")
if not isinstance(cells, list) or not cells:
    sys.exit("multitenant-gate: no cells in report")
churned = 0
for cell in cells:
    mix = cell["mix"]
    label = f"{cell['topology']}/t={cell['tenants']}/churn={cell['churn']}"
    if not mix["completed"]:
        sys.exit(f"multitenant-gate: {label}: cell incomplete")
    if len(mix["per_tenant"]) != cell["tenants"]:
        sys.exit(f"multitenant-gate: {label}: missing tenant rows")
    for t in mix["per_tenant"]:
        if not t["completed"]:
            sys.exit(f"multitenant-gate: {label}: tenant {t['tenant']} "
                     "never reported a DeliveryReport")
    if not 0.0 <= mix["jain_fairness"] <= 1.0:
        sys.exit(f"multitenant-gate: {label}: Jain index out of [0, 1]")
    if cell["churn"]:
        churned += sum(t["late_joins"] + t["leaves"] + t["crashes"]
                       for t in mix["per_tenant"])
if churned == 0:
    sys.exit("multitenant-gate: churn cells exercised no churn events")
print(f"multitenant-gate: {len(cells)} cells, every tenant reported, "
      f"{churned} churn events exercised")
EOF
  fi
  if [ "$mt_ok" -eq 1 ]; then
    echo "ok   fig_multitenant report gate ($mt_report)"
    pass=$((pass + 1))
  else
    echo "FAIL fig_multitenant: report missing, non-deterministic, or invalid"
    fail=$((fail + 1))
  fi
else
  echo "skip fig_multitenant report gate (binary missing)"
fi

# Trace export gate: the abl_loss_sweep trace written above must be a
# well-formed Chrome trace-event file (loadable at ui.perfetto.dev) with
# named protocol events and an ALLOC request in every run, whose
# attribution reports account for >= 95% of every run's time, and — on the
# lossy points — trace every retransmission back to a tagged drop cause.
if [ -n "$PYTHON" ] && [ -s "$TMP_DIR/abl_loss_sweep.serial.trace.json" ]; then
  if "$PYTHON" - "$TMP_DIR/abl_loss_sweep.serial.trace.json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc.get("traceEvents")
if not isinstance(events, list) or not events:
    sys.exit("trace-gate: traceEvents missing or empty")
phases = set()
for e in events:
    # Metadata ("M") events carry no timestamp; everything else must.
    keys = ("ph", "pid") if e.get("ph") == "M" else ("ph", "ts", "pid", "tid")
    for key in keys:
        if key not in e:
            sys.exit(f"trace-gate: event missing {key}: {e}")
    phases.add(e["ph"])
for needed in ("M", "X", "i"):  # metadata, wire spans, protocol instants
    if needed not in phases:
        sys.exit(f"trace-gate: no '{needed}' events in trace")
# Every protocol event kind has a name, and every run starts with the
# sender's ALLOC request on the one protocol event path.
if any(e.get("name") == "unknown" for e in events):
    sys.exit("trace-gate: an event kind has no name ('unknown')")
runs = {e["pid"] for e in events if e.get("name") == "process_name"}
allocs = {e["pid"] for e in events if e.get("ph") == "i" and e.get("name") == "alloc_req"}
if runs - allocs:
    sys.exit(f"trace-gate: runs without an alloc_req event: {sorted(runs - allocs)}")

reports = doc.get("attribution")
if not isinstance(reports, list) or not reports:
    sys.exit("trace-gate: attribution reports missing")
lossy = 0
for r in reports:
    frac = r["accounted_fraction"]
    if frac < 0.95:
        sys.exit(f"trace-gate: {r['label']}: accounted_fraction {frac} < 0.95")
    retx = r["retransmissions"]
    by_cause = r["retransmissions_by_cause"]
    if retx != sum(by_cause.values()):
        sys.exit(f"trace-gate: {r['label']}: by-cause sum != {retx}")
    if retx > 0:
        lossy += 1
        if by_cause.get("unknown", 0) != 0:
            sys.exit(f"trace-gate: {r['label']}: retransmissions left unattributed")
if lossy == 0:
    sys.exit("trace-gate: no lossy point exercised retransmission attribution")
print(f"trace-gate: {len(reports)} runs, {lossy} lossy, all >= 95% accounted, "
      f"every retransmission cause-tagged")
EOF
  then
    echo "ok   abl_loss_sweep trace export + attribution gate"
    pass=$((pass + 1))
  else
    echo "FAIL abl_loss_sweep: trace export failed validation"
    fail=$((fail + 1))
  fi
else
  echo "skip trace export gate (trace file or python3 missing)"
fi

# Parallel speedup gate: the sweep engine exists to use the cores, so hold
# it to that on machines that have them. abl_straggler --quick is a grid of
# independent half-second points; at 4 jobs it must run at least 2x faster
# than serial. Needs >=4 CPUs to be meaningful — fewer (CI containers are
# often 1-2 vCPU) writes a skip marker instead of a bogus failure.
if [ -n "$PYTHON" ] && [ -x "$BENCH_DIR/abl_straggler" ]; then
  sweep_report="$BUILD_DIR/BENCH_sweep_parallel.json"
  if "$PYTHON" - "$BENCH_DIR/abl_straggler" "$sweep_report" <<'EOF'
import json, os, subprocess, sys, time

bin_path, report_path = sys.argv[1], sys.argv[2]
cpus = os.cpu_count() or 1
if cpus < 4:
    with open(report_path, "w") as f:
        json.dump({"benchmark": "sweep_parallel", "skipped": True,
                   "reason": f"needs >=4 CPUs, have {cpus}", "cpus": cpus}, f,
                  indent=2)
        f.write("\n")
    print(f"sweep-gate: skipped ({cpus} CPU(s) online, needs >= 4)")
    sys.exit(0)

def run(jobs):
    start = time.monotonic()
    subprocess.run([bin_path, "--quick", f"--jobs={jobs}"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.monotonic() - start

run(1)  # warm caches/page-ins so the timed pair is comparable
serial = min(run(1) for _ in range(2))
parallel = min(run(4) for _ in range(2))
speedup = serial / parallel if parallel > 0 else 0.0
report = {
    "benchmark": "sweep_parallel",
    "grid": "abl_straggler --quick",
    "cpus": cpus,
    "serial_seconds": round(serial, 4),
    "parallel_seconds": round(parallel, 4),
    "speedup": round(speedup, 3),
    "threshold": 2.0,
    "pass": speedup >= 2.0,
}
with open(report_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"sweep-gate: 4-job speedup = {speedup:.2f}x over serial "
      f"(threshold 2.0x, {cpus} CPUs)")
sys.exit(0 if speedup >= 2.0 else 1)
EOF
  then
    echo "ok   sweep parallel-speedup gate ($sweep_report)"
    pass=$((pass + 1))
  else
    echo "FAIL sweep: 4-job sweep is not 2x faster than serial"
    fail=$((fail + 1))
  fi
else
  echo "skip sweep parallel-speedup gate (binary or python3 missing)"
fi

# Engine-dispatch regression gate: the refactored sender hot path asks its
# per-packet policy through a virtual engine interface. Diff the engine
# variant of the window-cycle microbenchmark against the direct-call one
# (the pre-refactor shape) and fail if dispatch costs more than 5%. The
# comparison is self-relative — both variants run in this same process on
# this same machine — so it is robust to absolute machine speed.
MICRO="$BENCH_DIR/micro_core"
if [ -x "$MICRO" ] && [ -n "$PYTHON" ]; then
  gate_json="$TMP_DIR/micro_core_window.json"
  report_json="$BUILD_DIR/BENCH_engine_refactor.json"
  if "$MICRO" "--benchmark_filter=^BM_(Engine)?WindowCycle\$" \
       --benchmark_repetitions=5 --benchmark_format=json \
       > "$gate_json" 2> "$TMP_DIR/micro_core.err"; then
    if "$PYTHON" - "$gate_json" "$report_json" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
# Best-of-repetitions per benchmark family: the minimum is the least noisy
# estimate of the true cost.
best = {}
for b in data.get("benchmarks", []):
    if b.get("run_type") != "iteration":
        continue
    family = b["name"].split("/")[0]
    t = b["cpu_time"]
    if family not in best or t < best[family]:
        best[family] = t
direct = best.get("BM_WindowCycle")
engine = best.get("BM_EngineWindowCycle")
if direct is None or engine is None:
    print("engine-gate: benchmarks missing from micro_core output", file=sys.stderr)
    sys.exit(1)
ratio = engine / direct
report = {
    "benchmark": "window_cycle",
    "direct_cpu_time_ns": direct,
    "engine_cpu_time_ns": engine,
    "engine_over_direct": round(ratio, 4),
    "threshold": 1.05,
    "pass": ratio <= 1.05,
}
with open(sys.argv[2], "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"engine-gate: engine/direct = {ratio:.3f} (threshold 1.05)")
sys.exit(0 if ratio <= 1.05 else 1)
EOF
    then
      echo "ok   micro_core engine-dispatch gate ($report_json)"
      pass=$((pass + 1))
    else
      echo "FAIL micro_core: engine dispatch regressed >5% vs direct calls"
      fail=$((fail + 1))
    fi
  else
    echo "FAIL micro_core: benchmark run failed"
    sed 's/^/  | /' "$TMP_DIR/micro_core.err" | tail -5
    fail=$((fail + 1))
  fi
else
  echo "skip micro_core engine-dispatch gate (binary or python3 missing)"
fi

# Event-core speedup gate: the pooled-wheel core exists to make the
# cancel/re-arm-heavy experiment sweeps fast, so hold it to its claim.
# BM_EventChurn runs the same RTO-shaped schedule/cancel churn on both
# cores in this one process; the pooled core must clear 2x the legacy
# heap's events/sec. The absolute pooled events/sec lands in
# BENCH_sim_core.json, which ci.sh uses as the cross-run regression
# baseline (README "Performance" links there too).
if [ -x "$MICRO" ] && [ -n "$PYTHON" ]; then
  churn_json="$TMP_DIR/micro_core_churn.json"
  core_report="$BUILD_DIR/BENCH_sim_core.json"
  if "$MICRO" "--benchmark_filter=^BM_EventChurn/" \
       --benchmark_repetitions=5 --benchmark_format=json \
       > "$churn_json" 2> "$TMP_DIR/micro_core_churn.err"; then
    if "$PYTHON" - "$churn_json" "$core_report" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
# Best-of-repetitions per core: the minimum cpu_time is the least noisy
# estimate of the true cost. Arg 0 = pooled wheel, arg 1 = legacy heap
# (sim::EventCoreKind values).
best = {}
for b in data.get("benchmarks", []):
    if b.get("run_type") != "iteration":
        continue
    arg = b["name"].split("/")[1]
    t = b["cpu_time"]
    if arg not in best or t < best[arg][0]:
        best[arg] = (t, b.get("items_per_second", 0.0))
pooled = best.get("0")
legacy = best.get("1")
if pooled is None or legacy is None:
    print("sim-core-gate: BM_EventChurn runs missing from output", file=sys.stderr)
    sys.exit(1)
speedup = legacy[0] / pooled[0]
report = {
    "benchmark": "event_churn",
    "pooled_cpu_time_ns": pooled[0],
    "legacy_cpu_time_ns": legacy[0],
    "pooled_events_per_sec": pooled[1],
    "legacy_events_per_sec": legacy[1],
    "speedup": round(speedup, 4),
    "threshold": 2.0,
    "pass": speedup >= 2.0,
}
with open(sys.argv[2], "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"sim-core-gate: pooled/legacy speedup = {speedup:.2f}x (threshold 2.0x), "
      f"pooled {pooled[1] / 1e6:.1f}M events/s")
sys.exit(0 if speedup >= 2.0 else 1)
EOF
    then
      echo "ok   micro_core event-core gate ($core_report)"
      pass=$((pass + 1))
    else
      echo "FAIL micro_core: pooled event core is not 2x the legacy heap"
      fail=$((fail + 1))
    fi
  else
    echo "FAIL micro_core: BM_EventChurn run failed"
    sed 's/^/  | /' "$TMP_DIR/micro_core_churn.err" | tail -5
    fail=$((fail + 1))
  fi
else
  echo "skip micro_core event-core gate (binary or python3 missing)"
fi

# Tracing-disabled overhead gate: every instrumented tier guards its hooks
# with one null-pointer test, and that test is all an untraced run may pay.
# BM_EventChurnNullTrace is BM_EventChurn's exact churn plus the guarded
# hook in every executed event; on the pooled core it must stay within 5%
# of the uninstrumented baseline. Self-relative, like the engine gate.
if [ -x "$MICRO" ] && [ -n "$PYTHON" ]; then
  trace_json="$TMP_DIR/micro_core_trace.json"
  trace_report="$BUILD_DIR/BENCH_trace_overhead.json"
  if "$MICRO" "--benchmark_filter=^BM_EventChurn(NullTrace)?/0\$" \
       --benchmark_repetitions=5 --benchmark_format=json \
       > "$trace_json" 2> "$TMP_DIR/micro_core_trace.err"; then
    if "$PYTHON" - "$trace_json" "$trace_report" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
# Best-of-repetitions per family: the minimum cpu_time is the least noisy
# estimate of the true cost.
best = {}
for b in data.get("benchmarks", []):
    if b.get("run_type") != "iteration":
        continue
    family = b["name"].split("/")[0]
    t = b["cpu_time"]
    if family not in best or t < best[family]:
        best[family] = t
plain = best.get("BM_EventChurn")
hooked = best.get("BM_EventChurnNullTrace")
if plain is None or hooked is None:
    print("trace-overhead-gate: benchmarks missing from output", file=sys.stderr)
    sys.exit(1)
ratio = hooked / plain
report = {
    "benchmark": "event_churn_null_trace",
    "plain_cpu_time_ns": plain,
    "null_trace_cpu_time_ns": hooked,
    "null_trace_over_plain": round(ratio, 4),
    "threshold": 1.05,
    "pass": ratio <= 1.05,
}
with open(sys.argv[2], "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"trace-overhead-gate: hooked/plain = {ratio:.3f} (threshold 1.05)")
sys.exit(0 if ratio <= 1.05 else 1)
EOF
    then
      echo "ok   micro_core trace-overhead gate ($trace_report)"
      pass=$((pass + 1))
    else
      echo "FAIL micro_core: tracing-disabled hooks cost >5% on the event churn"
      fail=$((fail + 1))
    fi
  else
    echo "FAIL micro_core: BM_EventChurnNullTrace run failed"
    sed 's/^/  | /' "$TMP_DIR/micro_core_trace.err" | tail -5
    fail=$((fail + 1))
  fi
else
  echo "skip micro_core trace-overhead gate (binary or python3 missing)"
fi

# Erasure-decode kernel gate: the EC protocol family's cost story rests on
# the wide GF(2^8) backend (PSHUFB nibble tables on x86, slice-by-64 SWAR
# elsewhere) actually beating the scalar log/exp path. Hold the region
# multiply-accumulate — the decode hot loop — to >= 2x scalar, and record
# the full Reed-Solomon decode throughput (k=32, m=8, worst legal erasure
# pattern) alongside it in BENCH_ec_decode.json, the cross-run baseline.
# Arg 0 = scalar, arg 1 = wide (fec::Backend values).
if [ -x "$MICRO" ] && [ -n "$PYTHON" ]; then
  gf_json="$TMP_DIR/micro_core_gf.json"
  gf_report="$BUILD_DIR/BENCH_ec_decode.json"
  if "$MICRO" "--benchmark_filter=^BM_(GfMulAddRegion|RsDecode)/" \
       --benchmark_repetitions=5 --benchmark_format=json \
       > "$gf_json" 2> "$TMP_DIR/micro_core_gf.err"; then
    if "$PYTHON" - "$gf_json" "$gf_report" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    data = json.load(f)
# Best-of-repetitions per (family, backend): the minimum cpu_time is the
# least noisy estimate of the true cost.
best = {}
for b in data.get("benchmarks", []):
    if b.get("run_type") != "iteration":
        continue
    family, arg = b["name"].split("/")[:2]
    t = b["cpu_time"]
    key = (family, arg)
    if key not in best or t < best[key][0]:
        best[key] = (t, b.get("bytes_per_second", 0.0))
mul_scalar = best.get(("BM_GfMulAddRegion", "0"))
mul_wide = best.get(("BM_GfMulAddRegion", "1"))
dec_scalar = best.get(("BM_RsDecode", "0"))
dec_wide = best.get(("BM_RsDecode", "1"))
if None in (mul_scalar, mul_wide, dec_scalar, dec_wide):
    print("ec-decode-gate: GF benchmarks missing from output", file=sys.stderr)
    sys.exit(1)
speedup = mul_scalar[0] / mul_wide[0]
report = {
    "benchmark": "gf256_mul_add_region",
    "scalar_cpu_time_ns": mul_scalar[0],
    "wide_cpu_time_ns": mul_wide[0],
    "scalar_bytes_per_sec": mul_scalar[1],
    "wide_bytes_per_sec": mul_wide[1],
    "speedup": round(speedup, 4),
    "rs_decode_scalar_bytes_per_sec": dec_scalar[1],
    "rs_decode_wide_bytes_per_sec": dec_wide[1],
    "rs_decode_speedup": round(dec_scalar[0] / dec_wide[0], 4),
    "threshold": 2.0,
    "pass": speedup >= 2.0,
}
with open(sys.argv[2], "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"ec-decode-gate: wide/scalar mul_add speedup = {speedup:.2f}x "
      f"(threshold 2.0x), RS decode {dec_wide[1] / 1e6:.1f}MB/s wide")
sys.exit(0 if speedup >= 2.0 else 1)
EOF
    then
      echo "ok   micro_core ec-decode gate ($gf_report)"
      pass=$((pass + 1))
    else
      echo "FAIL micro_core: wide GF backend is not 2x the scalar path"
      fail=$((fail + 1))
    fi
  else
    echo "FAIL micro_core: GF benchmark run failed"
    sed 's/^/  | /' "$TMP_DIR/micro_core_gf.err" | tail -5
    fail=$((fail + 1))
  fi
else
  echo "skip micro_core ec-decode gate (binary or python3 missing)"
fi

# Scalability gate: the O(log N) roster/tracker refactor's end-to-end
# claim. fig_scalability_xl runs every protocol family over the
# spine-leaf fabric at N in {31, 127, 1023} (--quick) and reports wall
# cost per simulator event in a side-channel JSON (wall time is the one
# number the determinism contract keeps off stdout). If per-event cost
# grew linearly with the roster — the pre-refactor flat-walk behavior —
# the ratio between the largest and smallest N would track N itself;
# demand it stays under half of that slope. BENCH_scalability.json is
# also the artifact README points at for the scaling story.
XL="$BENCH_DIR/fig_scalability_xl"
if [ -x "$XL" ] && [ -n "$PYTHON" ]; then
  xl_report="$BUILD_DIR/BENCH_scalability.json"
  if "$XL" --quick "--wallclock-out=$xl_report" \
       > "$TMP_DIR/fig_scalability_xl.gate.out" 2> /dev/null; then
    if "$PYTHON" - "$xl_report" <<'EOF'
import json, sys
from collections import defaultdict

with open(sys.argv[1]) as f:
    doc = json.load(f)
rows = [r for r in doc.get("rows", []) if r.get("completed")]
if not rows:
    sys.exit("scalability-gate: no completed rows")
by_proto = defaultdict(list)
for r in rows:
    by_proto[r["protocol"]].append(r)
worst = 0.0
for proto, pr in sorted(by_proto.items()):
    pr.sort(key=lambda r: r["receivers"])
    if len(pr) < 2:
        sys.exit(f"scalability-gate: {proto}: fewer than 2 completed points")
    lo, hi = pr[0], pr[-1]
    n_ratio = hi["receivers"] / lo["receivers"]
    cost_ratio = hi["wall_us_per_event"] / max(lo["wall_us_per_event"], 1e-9)
    worst = max(worst, cost_ratio / n_ratio)
    if cost_ratio >= 0.5 * n_ratio:
        sys.exit(
            f"scalability-gate: {proto}: per-event cost grew {cost_ratio:.1f}x "
            f"from N={lo['receivers']} to N={hi['receivers']} "
            f"(limit {0.5 * n_ratio:.1f}x = half-linear)")
print(f"scalability-gate: {len(by_proto)} protocols, worst per-event cost "
      f"slope {worst:.3f} of linear (limit 0.5)")
EOF
    then
      echo "ok   fig_scalability_xl sub-linear scaling gate ($xl_report)"
      pass=$((pass + 1))
    else
      echo "FAIL fig_scalability_xl: per-event cost is not sub-linear in N"
      fail=$((fail + 1))
    fi
  else
    echo "FAIL fig_scalability_xl: gate run failed"
    sed 's/^/  | /' "$TMP_DIR/fig_scalability_xl.gate.out" | tail -5
    fail=$((fail + 1))
  fi
else
  echo "skip fig_scalability_xl scaling gate (binary or python3 missing)"
fi

# Posix batched-I/O gate: the TX-ring/sendmmsg/GSO path exists to beat
# one-syscall-per-datagram, so hold it to 2x the unbatched baseline in
# delivered packets/sec at 1 KiB on loopback. The bench's report also
# embeds a sim-vs-real parity run (same protocol code, byte-exact
# delivery on both backends), gated here alongside the speedup. Without
# UDP_SEGMENT/UDP_GRO the kernel cannot amortize the per-skb cost and
# plain sendmmsg hovers near 1x — that environment writes a skip marker,
# not a bogus failure. BENCH_posix_io.json is the artifact README's
# "Running on real sockets" section points at.
PL="$BENCH_DIR/posix_loopback"
if [ -x "$PL" ] && [ -n "$PYTHON" ]; then
  pl_report="$BUILD_DIR/BENCH_posix_io.json"
  if "$PL" --quick "--report-out=$pl_report" \
       > "$TMP_DIR/posix_loopback.gate.out" 2>&1; then
    if "$PYTHON" - "$pl_report" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
if doc.get("skipped"):
    print(f"posix-io-gate: skipped ({doc.get('reason', 'unknown')})")
    sys.exit(0)
if not doc.get("parity_ok"):
    sys.exit("posix-io-gate: embedded sim-vs-real parity report failed")
if not doc.get("gso_supported"):
    doc["gate"] = {"skipped": True,
                   "reason": "kernel lacks UDP_SEGMENT; sendmmsg alone does not clear 2x"}
    with open(sys.argv[1], "w") as f:
        json.dump(doc, f)
        f.write("\n")
    print("posix-io-gate: parity ok; speedup gate skipped (no UDP_SEGMENT)")
    sys.exit(0)
speedup = doc["speedup_1k"]
cells = {(c["payload_bytes"], c["batched"]): c for c in doc["cells"]}
batched = cells.get((1024, True))
if batched is None:
    sys.exit("posix-io-gate: 1 KiB batched cell missing from report")
print(f"posix-io-gate: batched {batched['packets_per_sec'] / 1e6:.2f}M pkts/s, "
      f"{speedup:.2f}x over unbatched at 1 KiB (threshold 2.0x), parity ok")
sys.exit(0 if speedup >= 2.0 else 1)
EOF
    then
      echo "ok   posix_loopback batched-I/O gate ($pl_report)"
      pass=$((pass + 1))
    else
      echo "FAIL posix_loopback: batched path under 2x unbatched, or parity broken"
      fail=$((fail + 1))
    fi
  else
    echo "FAIL posix_loopback: gate run failed"
    sed 's/^/  | /' "$TMP_DIR/posix_loopback.gate.out" | tail -5
    fail=$((fail + 1))
  fi
else
  echo "skip posix_loopback batched-I/O gate (binary or python3 missing)"
fi

echo "smoke: $pass passed, $fail failed"
[ "$fail" -eq 0 ]
