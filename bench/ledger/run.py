#!/usr/bin/env python3
"""Ledger benchmark entry point (see README.md).

    python3 bench/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds rmc_ledger and micro_core into
build-ledger/ through the project-include hook, runs one workload, and
prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. Build logs and progress go to stderr. Exits non-zero,
without a result line, when the build, a run or a correctness check fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, "build-ledger")
HOOK = os.path.join(ROOT, "bench", "ledger", "hook.cmake")
LEDGER = os.path.join(BUILD, "rmc_ledger")
MICRO = os.path.join(BUILD, "bench", "micro_core")

# Each run has to finish within 180 s; the timed phase is at most 60 s.
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 9


def ns_per_item(b):
    return 1e9 / b["items_per_second"]


def ns_per_iteration(b):
    if b["time_unit"] != "ns":
        fail(f"{b['run_name']} reports {b['time_unit']}, expected ns")
    return b["real_time"]


# micro_core benchmarks behind the isolated per-layer rates:
# metric -> (benchmark, value from its median JSON record).
MICRO_LAYERS = {
    "sim.event_churn_ns": ("BM_EventChurn/0", ns_per_item),
    "net.frame_fanout_ns": ("BM_FrameFanout/16", ns_per_item),
    "inet.fragment_ns": ("BM_FragmentDatagram/8000", ns_per_iteration),
    "rmcast.header_roundtrip_ns": ("BM_HeaderRoundTrip", ns_per_iteration),
    "rmcast.window_cycle_ns": ("BM_EngineWindowCycle", ns_per_iteration),
    "rmcast.mincum_update_ns": ("BM_MinCumUpdate/10007/1", ns_per_item),
    "fec.gf_muladd_gbps": ("BM_GfMulAddRegion/1", lambda b: b["bytes_per_second"] / 1e9),
    "fec.rs_decode_mbps": ("BM_RsDecode/1", lambda b: b["bytes_per_second"] / 1e6),
}


def fail(why):
    print(f"run.py: {why}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no CMakeLists.txt here; run from the repository root")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", ROOT, "-B", BUILD,
                     f"-DCMAKE_PROJECT_rmc_INCLUDE={HOOK}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", BUILD, "--target", "rmc_ledger",
                       "micro_core", "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")


def parse_lines(text):
    """'name value unit' lines -> {name: (value, unit)}."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3:
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def setup_once(workload, seed):
    """One launch, timed from just before the spawn until the workload is
    ready to send."""
    t0 = time.monotonic_ns()
    out = run_child([LEDGER, f"--workload={workload}", f"--seed={seed}",
                     "--setup-only", f"--t0-ns={t0}"])
    return parse_lines(out)["setup_s"][0]


def run_with_setups(cmd, workload, seed, seconds):
    """Runs the measured process and, spread over its timed phase, the
    set-up launches; returns its stdout and the median set-up time. Load
    from other tenants of a shared host comes in regimes lasting seconds,
    so launches spread over the run sample several of them rather than
    letting one decide setup_s. They use their own ports and another
    core, and take about 1% of the run."""
    main = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        samples = []
        for _ in range(SETUP_REPEATS):
            time.sleep(seconds / SETUP_REPEATS)
            samples.append(setup_once(workload, seed))
        out, _ = main.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        main.kill()
        main.wait()
        raise
    if main.returncode != 0:
        fail(f"exit code {main.returncode}: {' '.join(cmd)}")
    return out, statistics.median(samples)


def micro_layers():
    regex = "^(" + "|".join(bench for bench, _ in MICRO_LAYERS.values()) + ")$"
    out = run_child([MICRO, f"--benchmark_filter={regex}",
                     "--benchmark_format=json", "--benchmark_repetitions=3",
                     "--benchmark_min_time=0.1",
                     "--benchmark_report_aggregates_only=true"])
    medians = {b["run_name"]: b for b in json.loads(out)["benchmarks"]
               if b.get("aggregate_name") == "median"}
    metrics = {}
    for metric, (bench, value_of) in MICRO_LAYERS.items():
        if bench not in medians:
            fail(f"micro_core did not report {bench}")
        metrics[metric] = value_of(medians[bench])
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    build()

    cmd = [LEDGER, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--duration={args.seconds}"]
    if args.trace:
        measured = parse_lines(run_child(cmd + ["--traced"]))
        for name, value in micro_layers().items():
            measured[name] = (value, None)
        wanted = spec["per_layer"]
    else:
        out, setup_s = run_with_setups(cmd, args.workload, args.seed, args.seconds)
        measured = parse_lines(out)
        measured["setup_s"] = (setup_s, "s")
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail(f"{args.workload} did not report {m['name']}")
        value, unit = measured[m["name"]]
        if unit not in (None, m["unit"]):
            fail(f"{m['name']} measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for m in wanted:
        print(f"# {m['name']:34s} {metrics[m['name']]['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": measured["correct"][0] == 1.0,
        "attempted": int(measured["attempted"][0]),
        "failed": int(measured["failed"][0]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
