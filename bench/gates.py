#!/usr/bin/env python3
"""Pass/fail gates over the bench binaries, shared by bench/smoke.sh and ci.sh.

Usage: bench/gates.py smoke BUILD_DIR   every bench binary with --quick, then
                                        the smoke gates
       bench/gates.py ci BUILD_DIR      ledger correctness and the two
                                        per-machine throughput ratchets
       bench/gates.py golden PARENT_BUILD BUILD_DIR
                                        byte-compares every simulated output
                                        of BUILD_DIR against PARENT_BUILD

Every gate prints one ok/FAIL/skip line into one tally; the run ends with
"<suite>: N passed, M failed" and exits non-zero when a gate failed. Gate
reports are written into BUILD_DIR as BENCH_*.json.
"""
import difflib
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


class Fail(Exception):
    """The gate ran and its check did not hold."""


class Skip(Exception):
    """The gate cannot run here (binary, input or capability missing)."""


def tail(path, n=5):
    lines = Path(path).read_text(errors="replace").splitlines()[-n:]
    return "".join(f"\n  | {line}" for line in lines)


def run(cmd, stdout=None, stderr=None):
    """Runs `cmd` with stdout and stderr written to the given files (None
    discards). A non-zero exit fails the gate, showing what it wrote."""
    with open(stdout or os.devnull, "w") as out, open(stderr or os.devnull, "w") as err:
        code = subprocess.run([str(c) for c in cmd], stdout=out,
                              stderr=out if stderr == stdout else err).returncode
    if code != 0:
        shown = stderr or stdout
        raise Fail(f"{Path(cmd[0]).name} exited {code}" + (tail(shown) if shown else ""))


def load(path):
    with open(path) as f:
        return json.load(f)


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


class Gates:
    def __init__(self, suite, build):
        self.suite, self.build = suite, Path(build).resolve()
        self.bench = self.build / "bench"
        self.tmp = Path(tempfile.mkdtemp())
        self.passed = self.failed = 0

    def gate(self, label, check, *binaries):
        """Runs `check()`, which prints its detail and raises Fail or Skip;
        a missing binary skips. Anything else it raises is a failure."""
        try:
            missing = [b.name for b in binaries if not os.access(b, os.X_OK)]
            if missing:
                raise Skip(f"{missing[0]} missing")
            check()
        except Skip as why:
            print(f"skip {label} ({why})")
            return
        except Exception as why:  # a crashed check is a failed gate
            print(f"FAIL {label}: {why}")
            self.failed += 1
            return
        print(f"ok   {label}")
        self.passed += 1

    def finish(self):
        shutil.rmtree(self.tmp, ignore_errors=True)
        print(f"{self.suite}: {self.passed} passed, {self.failed} failed")
        return 0 if self.failed == 0 else 1


# --- smoke ------------------------------------------------------------------

def metrics_snapshot(g, binary):
    """The bench exits cleanly and writes a parseable --metrics-out JSON."""
    snapshot, out = g.tmp / f"{binary.name}.json", g.tmp / f"{binary.name}.out"
    run([binary, "--quick", f"--metrics-out={snapshot}"], out, out)
    if not snapshot.is_file() or snapshot.stat().st_size == 0:
        raise Fail("metrics snapshot missing or empty")
    try:
        load(snapshot)
    except ValueError:
        raise Fail("metrics snapshot is not valid JSON")


# --jobs=4 must be byte-identical to --jobs=1 in the printed table, the
# merged metrics snapshot and the exported trace: the sweep engine's core
# contract, proved end to end on one binary per harness shape (Measurement
# grid, RunHandle table, ablation sweep, the erasure-coded family under
# burst loss, which exits non-zero if FEC decode or the repair crossover
# breaks, the spine-leaf fabric at 10^3 receivers without its wall-clock
# side channel, and the multi-tenant mix). Metrics are compared without the
# meta "jobs" line, the one field that records the worker count.
DETERMINISM_BINARIES = ["fig10_ack_window", "tab02_control_load", "abl_loss_sweep",
                        "abl_ec_crossover", "fig_scalability_xl", "fig_multitenant"]


def sweep_determinism(g, binary):
    outs = {}
    for jobs, mode in ((1, "serial"), (4, "parallel")):
        stem = g.tmp / f"{binary.name}.{mode}"
        run([binary, "--quick", f"--jobs={jobs}", f"--metrics-out={stem}.json",
             f"--trace-out={stem}.trace.json"], f"{stem}.out")
        metrics = [line for line in Path(f"{stem}.json").read_text().splitlines()
                   if not line.startswith('    "jobs": ')]
        outs[jobs] = (Path(f"{stem}.out").read_text().splitlines(), metrics,
                      Path(f"{stem}.trace.json").read_bytes())
    if outs[1] != outs[4]:
        diff = list(difflib.unified_diff(outs[1][0], outs[4][0], lineterm="", n=0))
        raise Fail("--jobs=4 output differs from --jobs=1\n" + "\n".join(diff[2:7]))


def multitenant_report(g):
    """fig_multitenant's report (every cell's per-tenant completions, Jain
    index and switch contention) is byte-identical across --jobs, and every
    tenant of every cell reported a DeliveryReport: a stalled sender shows
    up here as an incomplete cell before it shows up anywhere else."""
    report = g.build / "BENCH_multitenant.json"
    parallel = g.tmp / "multitenant.parallel.json"
    run([g.bench / "fig_multitenant", "--quick", "--jobs=1", f"--report-out={report}"])
    run([g.bench / "fig_multitenant", "--quick", "--jobs=4", f"--report-out={parallel}"])
    if report.read_bytes() != parallel.read_bytes():
        raise Fail("report differs between --jobs=1 and --jobs=4")
    cells = load(report).get("cells")
    if not isinstance(cells, list) or not cells:
        raise Fail("no cells in report")
    churned = 0
    for cell in cells:
        mix = cell["mix"]
        label = f"{cell['topology']}/t={cell['tenants']}/churn={cell['churn']}"
        if not mix["completed"]:
            raise Fail(f"{label}: cell incomplete")
        if len(mix["per_tenant"]) != cell["tenants"]:
            raise Fail(f"{label}: missing tenant rows")
        for t in mix["per_tenant"]:
            if not t["completed"]:
                raise Fail(f"{label}: tenant {t['tenant']} never reported a DeliveryReport")
        if not 0.0 <= mix["jain_fairness"] <= 1.0:
            raise Fail(f"{label}: Jain index out of [0, 1]")
        if cell["churn"]:
            churned += sum(t["late_joins"] + t["leaves"] + t["crashes"]
                           for t in mix["per_tenant"])
    if churned == 0:
        raise Fail("churn cells exercised no churn events")
    print(f"multitenant-gate: {len(cells)} cells, every tenant reported, "
          f"{churned} churn events exercised ({report})")


def trace_export(g):
    """The abl_loss_sweep trace from the determinism gate is a well-formed
    Chrome trace-event file (loadable at ui.perfetto.dev) with named
    protocol events and an ALLOC request in every run, whose attribution
    reports account for >= 95% of every run's time and, on the lossy
    points, trace every retransmission back to a tagged drop cause."""
    path = g.tmp / "abl_loss_sweep.serial.trace.json"
    if not path.is_file() or path.stat().st_size == 0:
        raise Skip("trace file missing")
    doc = load(path)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise Fail("traceEvents missing or empty")
    phases = set()
    for e in events:
        # Metadata ("M") events carry no timestamp; everything else must.
        keys = ("ph", "pid") if e.get("ph") == "M" else ("ph", "ts", "pid", "tid")
        for key in keys:
            if key not in e:
                raise Fail(f"event missing {key}: {e}")
        phases.add(e["ph"])
    for needed in ("M", "X", "i"):  # metadata, wire spans, protocol instants
        if needed not in phases:
            raise Fail(f"no '{needed}' events in trace")
    if any(e.get("name") == "unknown" for e in events):
        raise Fail("an event kind has no name ('unknown')")
    runs = {e["pid"] for e in events if e.get("name") == "process_name"}
    allocs = {e["pid"] for e in events if e.get("ph") == "i" and e.get("name") == "alloc_req"}
    if runs - allocs:
        raise Fail(f"runs without an alloc_req event: {sorted(runs - allocs)}")
    reports = doc.get("attribution")
    if not isinstance(reports, list) or not reports:
        raise Fail("attribution reports missing")
    lossy = 0
    for r in reports:
        if r["accounted_fraction"] < 0.95:
            raise Fail(f"{r['label']}: accounted_fraction {r['accounted_fraction']} < 0.95")
        retx, by_cause = r["retransmissions"], r["retransmissions_by_cause"]
        if retx != sum(by_cause.values()):
            raise Fail(f"{r['label']}: by-cause sum != {retx}")
        if retx > 0:
            lossy += 1
            if by_cause.get("unknown", 0) != 0:
                raise Fail(f"{r['label']}: retransmissions left unattributed")
    if lossy == 0:
        raise Fail("no lossy point exercised retransmission attribution")
    print(f"trace-gate: {len(reports)} runs, {lossy} lossy, all >= 95% accounted, "
          "every retransmission cause-tagged")


def sweep_speedup(g):
    """The sweep engine exists to use the cores: fig10_ack_window --quick,
    a grid of 25 independent points with no point longer than about a
    tenth of the serial total, runs >= 2x faster at 4 jobs than serially.
    Fewer than 4 CPUs writes a skip marker instead. The count is the CPUs
    this process may run on (its affinity mask, as taskset or a cpuset
    limits it), not the machine's."""
    report = g.build / "BENCH_sweep_parallel.json"
    cpus = len(os.sched_getaffinity(0))
    if cpus < 4:
        write_json(report, {"benchmark": "sweep_parallel", "skipped": True,
                            "reason": f"needs >=4 CPUs, have {cpus}", "cpus": cpus})
        raise Skip(f"{cpus} CPU(s) usable, needs >= 4")

    def timed(jobs):
        start = time.monotonic()
        run([g.bench / "fig10_ack_window", "--quick", f"--jobs={jobs}"])
        return time.monotonic() - start

    timed(1)  # warm caches/page-ins so the timed pair is comparable
    serial = min(timed(1) for _ in range(2))
    parallel = min(timed(4) for _ in range(2))
    speedup = serial / parallel if parallel > 0 else 0.0
    write_json(report, {
        "benchmark": "sweep_parallel", "grid": "fig10_ack_window --quick", "cpus": cpus,
        "serial_seconds": round(serial, 4), "parallel_seconds": round(parallel, 4),
        "speedup": round(speedup, 3), "threshold": 2.0, "pass": speedup >= 2.0})
    print(f"sweep-gate: 4-job speedup = {speedup:.2f}x over serial "
          f"(threshold 2.0x, {cpus} CPUs) ({report})")
    if speedup < 2.0:
        raise Fail("4-job sweep is not 2x faster than serial")


# Self-relative micro_core gates: both sides of each ratio run in one
# process on one machine, so they hold whatever the machine's speed. Each
# series is the best (minimum) cpu_time of five repetitions, the least
# noisy estimate of its true cost. Every ratio (field, numerator,
# denominator) lands in the report; the first one is gated against
# `limit` (op, threshold). `rate` copies a throughput counter into the
# report as <series>_<suffix>. An entry with no `ratios` only records its
# series for a later gate to read.
MICRO_GATES = [
    # The sender asks its per-packet policy through a virtual engine
    # interface; dispatch may cost at most 5% over direct calls.
    dict(label="micro_core engine-dispatch gate", filter="^BM_(Engine)?WindowCycle$",
         report="BENCH_engine_refactor.json", benchmark="window_cycle",
         series={"direct": "BM_WindowCycle", "engine": "BM_EngineWindowCycle"},
         ratios=[("engine_over_direct", "engine", "direct")], limit=("<=", 1.05)),
    # The event core's absolute events/sec on RTO-shaped churn: the ci
    # suite's cross-run ratchet input. The series keeps its old name,
    # "pooled", so existing per-machine baselines still read.
    dict(label="micro_core event-core throughput", filter="^BM_EventChurn/0$",
         report="BENCH_sim_core.json", benchmark="event_churn",
         series={"pooled": "BM_EventChurn/0"},
         rate=("items_per_second", "events_per_sec")),
    # Every instrumented tier guards its hooks with one null-pointer test,
    # and that is all an untraced run may pay: within 5% of the plain churn.
    dict(label="micro_core trace-overhead gate", filter="^BM_EventChurn(NullTrace)?/0$",
         report="BENCH_trace_overhead.json", benchmark="event_churn_null_trace",
         series={"plain": "BM_EventChurn/0", "null_trace": "BM_EventChurnNullTrace/0"},
         ratios=[("null_trace_over_plain", "null_trace", "plain")], limit=("<=", 1.05)),
    # The EC family's cost story rests on the wide GF(2^8) backend beating
    # the scalar log/exp path in the decode hot loop; full Reed-Solomon
    # decode (k=32, m=8, worst legal erasure pattern) is recorded beside it.
    dict(label="micro_core ec-decode gate", filter="^BM_(GfMulAddRegion|RsDecode)/",
         report="BENCH_ec_decode.json", benchmark="gf256_mul_add_region",
         series={"scalar": "BM_GfMulAddRegion/0", "wide": "BM_GfMulAddRegion/1",
                 "rs_decode_scalar": "BM_RsDecode/0", "rs_decode_wide": "BM_RsDecode/1"},
         rate=("bytes_per_second", "bytes_per_sec"),
         ratios=[("speedup", "scalar", "wide"),
                 ("rs_decode_speedup", "rs_decode_scalar", "rs_decode_wide")],
         limit=(">=", 2.0)),
]


def micro_ratio(g, spec):
    out, err = g.tmp / "micro_core.json", g.tmp / "micro_core.err"
    run([g.bench / "micro_core", f"--benchmark_filter={spec['filter']}",
         "--benchmark_repetitions=5", "--benchmark_format=json"], out, err)
    best = {}
    for b in load(out).get("benchmarks", []):
        if b.get("run_type") == "iteration":
            name = "/".join(b["name"].split("/")[:2])
            if name not in best or b["cpu_time"] < best[name]["cpu_time"]:
                best[name] = b
    report = {"benchmark": spec["benchmark"]}
    rate, suffix = spec.get("rate", (None, None))
    for series, name in spec["series"].items():
        if name not in best:
            raise Fail(f"{name} missing from micro_core output")
        report[f"{series}_cpu_time_ns"] = best[name]["cpu_time"]
        if rate:
            report[f"{series}_{suffix}"] = best[name].get(rate, 0.0)
    if "ratios" not in spec:
        write_json(g.build / spec["report"], report)
        print(f"{spec['benchmark']}: {report} ({g.build / spec['report']})")
        return
    ratios = [report[f"{num}_cpu_time_ns"] / report[f"{den}_cpu_time_ns"]
              for _, num, den in spec["ratios"]]
    for (field, _, _), ratio in zip(spec["ratios"], ratios):
        report[field] = round(ratio, 4)
    op, threshold = spec["limit"]
    ok = ratios[0] <= threshold if op == "<=" else ratios[0] >= threshold
    report.update({"threshold": threshold, "pass": ok})
    write_json(g.build / spec["report"], report)
    field, num, den = spec["ratios"][0]
    print(f"{spec['benchmark']}: {num}/{den} = {ratios[0]:.3f} (threshold {op} "
          f"{threshold}) ({g.build / spec['report']})")
    if not ok:
        raise Fail(f"{field} = {ratios[0]:.3f}, not {op} {threshold}")


def scalability(g):
    """fig_scalability_xl's wall cost per simulator event is sub-linear in N:
    from the smallest to the largest N of each protocol the cost ratio stays
    under half the N ratio (a flat roster walk would track N itself)."""
    report = g.build / "BENCH_scalability.json"
    run([g.bench / "fig_scalability_xl", "--quick", f"--wallclock-out={report}"],
        g.tmp / "fig_scalability_xl.gate.out")
    rows = [r for r in load(report).get("rows", []) if r.get("completed")]
    if not rows:
        raise Fail("no completed rows")
    by_proto = defaultdict(list)
    for r in rows:
        by_proto[r["protocol"]].append(r)
    worst = 0.0
    for proto, pr in sorted(by_proto.items()):
        pr.sort(key=lambda r: r["receivers"])
        if len(pr) < 2:
            raise Fail(f"{proto}: fewer than 2 completed points")
        lo, hi = pr[0], pr[-1]
        n_ratio = hi["receivers"] / lo["receivers"]
        cost_ratio = hi["wall_us_per_event"] / max(lo["wall_us_per_event"], 1e-9)
        worst = max(worst, cost_ratio / n_ratio)
        if cost_ratio >= 0.5 * n_ratio:
            raise Fail(f"{proto}: per-event cost grew {cost_ratio:.1f}x from "
                       f"N={lo['receivers']} to N={hi['receivers']} "
                       f"(limit {0.5 * n_ratio:.1f}x = half-linear)")
    print(f"scalability-gate: {len(by_proto)} protocols, worst per-event cost "
          f"slope {worst:.3f} of linear (limit 0.5) ({report})")


def posix_io(g):
    """The socket path batches: the 1 KiB loopback cell hands the kernel
    >= 32 datagrams per transmit syscall (GSO lifts it far higher; plain
    sendmmsg caps it at its 64-message batch), and the embedded sim-vs-real
    parity run delivers byte-exact transfers on both backends. A kernel
    that refuses sockets writes a skipped report."""
    report = g.build / "BENCH_posix_io.json"
    out = g.tmp / "posix_loopback.gate.out"
    run([g.bench / "posix_loopback", "--quick", f"--report-out={report}"], out, out)
    doc = load(report)
    if doc.get("skipped"):
        raise Skip(doc.get("reason", "unknown"))
    if not doc.get("parity_ok"):
        raise Fail("embedded sim-vs-real parity report failed")
    cell = next((c for c in doc["cells"] if c["payload_bytes"] == 1024), None)
    if cell is None:
        raise Fail("1 KiB cell missing from report")
    per_call = cell["datagrams_per_syscall"]
    print(f"posix-io-gate: {cell['packets_per_sec'] / 1e6:.2f}M pkts/s, {per_call:.1f} "
          f"datagrams per TX syscall at 1 KiB (threshold 32), parity ok ({report})")
    if per_call < 32:
        raise Fail("1 KiB cell under 32 datagrams per TX syscall")


# Peak resident memory of one tree transfer of 128 KiB to 1,023 receivers on
# a spine-leaf fabric (debug_probe). While every receiver assembled a
# private copy of the message it read 144.6 MB; with one message per group
# it reads about 13 MB (4-vCPU VM). Unlike wall time, peak RSS repeats
# within a few percent from run to run.
PEAK_RSS_PROBE = ["--proto=tree", "--topo=spineleaf", "--n=1023", "--bytes=131072"]
PEAK_RSS_LIMIT_MB = 48

# Spawns argv[1:] with output discarded and prints its exit code and
# ru_maxrss (KiB on Linux). It runs in a fresh interpreter because exec
# carries the spawning process's high-water mark into the child's
# ru_maxrss: spawned from this long-running process, whose own peak can
# reach hundreds of MB, the child would report that peak instead of its
# own. A fresh interpreter without site imports (-S) peaks at about 8.5 MB,
# under the probe's own peak.
MAXRSS_CHILD = (
    "import os, sys\n"
    "quiet = [(os.POSIX_SPAWN_OPEN, fd, os.devnull, os.O_WRONLY, 0) for fd in (1, 2)]\n"
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=quiet)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def peak_rss(g):
    """The 1,023-receiver probe peaks under PEAK_RSS_LIMIT_MB, measured
    with os.wait4 on that one child."""
    probe = g.bench / "debug_probe"
    cmd = [sys.executable, "-S", "-c", MAXRSS_CHILD, str(probe)] + PEAK_RSS_PROBE
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.split()
    code, kib = int(out[0]), int(out[1])
    if code != 0:
        raise Fail(f"debug_probe exited {code}")
    mb = kib / 1024
    print(f"peak-rss-gate: debug_probe {' '.join(PEAK_RSS_PROBE)} peaked at {mb:.1f} MB "
          f"(limit {PEAK_RSS_LIMIT_MB} MB)")
    if mb > PEAK_RSS_LIMIT_MB:
        raise Fail(f"peak RSS {mb:.1f} MB over {PEAK_RSS_LIMIT_MB} MB")


def smoke(g):
    for binary in sorted(g.bench.iterdir()):
        # micro_core is a Google Benchmark harness with no --metrics-out.
        if (binary.is_file() and os.access(binary, os.X_OK) and "." not in binary.name
                and binary.name != "micro_core"):
            g.gate(binary.name, lambda: metrics_snapshot(g, binary))
    for name in DETERMINISM_BINARIES:
        g.gate(f"{name} sweep determinism (--jobs=4 == --jobs=1, trace included)",
               lambda: sweep_determinism(g, g.bench / name), g.bench / name)
    g.gate("fig_multitenant report gate", lambda: multitenant_report(g),
           g.bench / "fig_multitenant")
    g.gate("abl_loss_sweep trace export + attribution gate", lambda: trace_export(g))
    g.gate("sweep parallel-speedup gate", lambda: sweep_speedup(g),
           g.bench / "fig10_ack_window")
    for spec in MICRO_GATES:
        g.gate(spec["label"], lambda: micro_ratio(g, spec), g.bench / "micro_core")
    g.gate("fig_scalability_xl sub-linear scaling gate", lambda: scalability(g),
           g.bench / "fig_scalability_xl")
    g.gate("posix_loopback batched-I/O gate", lambda: posix_io(g),
           g.bench / "posix_loopback")
    g.gate("debug_probe N=1023 peak-RSS gate", lambda: peak_rss(g),
           g.bench / "debug_probe")


# --- ci ---------------------------------------------------------------------

# The ledger's traced pass on the two simulated workloads that move the most
# payload bytes through the datagram path and on both real-socket
# workloads. Every delivery is byte-checked; the traced replica of each
# simulated transfer must reproduce run_multicast's simulated seconds,
# events and data packets exactly, and the traced socket pass must send as
# many data packets per message as the untraced PosixSession.
LEDGER_WORKLOADS = ["sim_paper", "sim_lossy", "posix_bulk", "posix_small"]


def ledger_correctness(workload):
    proc = subprocess.run(
        [sys.executable, "bench/ledger/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "2", "--trace", "1"], stdout=subprocess.PIPE, text=True, cwd=REPO)
    if proc.returncode != 0:
        raise Fail(f"bench/ledger/run.py exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        raise Fail(f"correct={result.get('correct')} failed={result.get('failed')}")
    print(f"ledger-correctness: {workload} ok ({result['attempted']} transfers)")


def xl_events_per_sec(path):
    rows = [r for r in load(path)["rows"] if r.get("completed")]
    wall = sum(r["wall_seconds"] for r in rows)
    if not rows or wall <= 0:
        raise Fail(f"no completed rows in {path}")
    return sum(r["events"] for r in rows) / wall


# Cross-run throughput ratchets against the last accepted run on this
# machine, failing on a drop below 0.95x. The baseline seeds itself on the
# first run and ratchets up whenever a run beats it, so a slow creep cannot
# hide under the floor; delete it to reset (it is per-machine state, not a
# committed artifact). The event core's absolute events/sec guards the
# simulator's hot loop; the XL sweep's events/sec guards against an
# O(log N)-shaped but constant-factor-slower roster tier.
RATCHETS = [
    ("event-core throughput gate", "BENCH_sim_core.json",
     lambda path: load(path)["pooled_events_per_sec"]),
    ("scalability events/sec gate", "BENCH_scalability.json", xl_events_per_sec),
]


def ratchet(report, events_per_sec):
    baseline = report.with_suffix(".baseline.json")
    if not report.is_file():
        raise Skip(f"{report} missing")
    current = events_per_sec(report)
    if not baseline.is_file():
        shutil.copyfile(report, baseline)
        print(f"{report.name}: baseline seeded at {current / 1e6:.2f}M events/s")
        return
    floor = events_per_sec(baseline)
    ratio = current / floor
    print(f"{report.name}: {current / 1e6:.2f}M events/s vs baseline "
          f"{floor / 1e6:.2f}M ({ratio:.3f}x, floor 0.95)")
    if ratio < 0.95:
        raise Fail("regressed more than 5% against this machine's baseline")
    if current > floor:
        shutil.copyfile(report, baseline)


def ci(g):
    for workload in LEDGER_WORKLOADS:
        g.gate(f"ledger-correctness {workload}", lambda: ledger_correctness(workload))
    for label, report, events_per_sec in RATCHETS:
        g.gate(label, lambda: ratchet(g.build / report, events_per_sec))


# --- golden -----------------------------------------------------------------

# A behaviour-preserving change must reproduce the parent's simulated
# outputs byte for byte. micro_core (Google Benchmark timings) and
# posix_loopback (real sockets) are wall-clock measurements, not goldens.
# The DETERMINISM_BINARIES, which the smoke suite already runs traced, also
# compare their --trace-out file, so the trace writer is pinned too.
GOLDEN_SKIP = {"micro_core", "posix_loopback"}
# debug_probe scenarios run for every registry id: error-free, lossy with
# peer repair, and bursty loss with a short receiver timeout (the NAK,
# GROUP_NAK and decode paths), all on the Figure-7 testbed; then 255
# receivers on a spine-leaf fabric, which pins the datacenter forwarding
# path, and 15 on the CSMA/CD bus, which pins collisions and backoff.
PROBE_SCENARIOS = [[], ["--loss=0.02", "--peer"],
                   ["--loss=0.02", "--burst=0.01", "--rtimeout=5"],
                   ["--topo=spineleaf", "--n=255", "--bytes=131072"],
                   ["--topo=bus", "--n=15"]]


def digest(path, keep=None):
    """sha256 of a file, or of the lines `keep` accepts; None when the run
    wrote no such file."""
    if not Path(path).is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as f:
        if keep is None:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
        else:
            for line in f:
                if keep(line):
                    h.update(line)
    return h.hexdigest()


def deterministic_metric(line):
    """Metrics lines that must match: all but the build's `git` meta entry
    and any wall-clock field."""
    return not line.lstrip().startswith(b'"git": ') and b"wall" not in line


def golden_outputs(g, binary, args, tag, trace):
    """Runs `binary args` and returns digests of what it wrote."""
    stem = g.tmp / tag
    files = [f"--metrics-out={stem}.json"] + ([f"--trace-out={stem}.trace"] if trace else [])
    run([binary, *args, *files], f"{stem}.out")
    outs = {"stdout": digest(f"{stem}.out", None),
            "metrics": digest(f"{stem}.json", deterministic_metric)}
    if trace:
        outs["trace"] = digest(f"{stem}.trace", None)
    for leftover in g.tmp.glob(f"{tag}.*"):
        leftover.unlink()
    return outs


def golden_compare(g, parent, name, args, trace=False):
    tag = re.sub(r"[^A-Za-z0-9]+", "_", " ".join([name, *args]))
    old = golden_outputs(g, parent / "bench" / name, args, f"{tag}.parent", trace)
    new = golden_outputs(g, g.bench / name, args, f"{tag}.new", trace)
    differ = [what for what in old if old[what] != new[what]]
    if differ:
        raise Fail(f"{', '.join(differ)} differ from the parent's")


def golden(g, parent_build):
    parent = Path(parent_build).resolve()
    for binary in sorted(g.bench.iterdir()):
        if (binary.is_file() and os.access(binary, os.X_OK) and "." not in binary.name
                and binary.name not in GOLDEN_SKIP and binary.name != "debug_probe"):
            traced = binary.name in DETERMINISM_BINARIES
            g.gate(f"{binary.name} --quick --csv" + (" (trace included)" if traced else ""),
                   lambda: golden_compare(g, parent, binary.name, ["--quick", "--csv"],
                                          trace=traced),
                   binary, parent / "bench" / binary.name)
    probe = g.bench / "debug_probe"
    ids = []

    def registry_ids():
        usage = subprocess.run([probe, "--help"], stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True).stdout
        found = re.search(r"registry id: ([a-z|]+)", usage)
        if found is None:
            raise Fail("debug_probe --help lists no registry ids")
        ids.extend(found.group(1).split("|"))
        print(f"registry ids: {' '.join(ids)}")

    g.gate("debug_probe registry ids", registry_ids, probe)
    for proto in ids:
        for scenario in PROBE_SCENARIOS:
            args = [f"--proto={proto}", *scenario]
            g.gate(f"debug_probe {' '.join(args)}",
                   lambda: golden_compare(g, parent, "debug_probe", args, trace=True),
                   probe, parent / "bench" / "debug_probe")


def main(argv):
    # suite -> (runner, extra arguments before BUILD_DIR)
    suites = {"smoke": (smoke, 0), "ci": (ci, 0), "golden": (golden, 1)}
    if len(argv) < 3 or argv[1] not in suites or len(argv) != 3 + suites[argv[1]][1]:
        sys.exit(__doc__)
    suite, _ = suites[argv[1]]
    g = Gates(argv[1], argv[-1])
    suite(g, *argv[2:-1])
    return g.finish()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
