// Shared plumbing for the table/figure bench binaries.
//
// Every binary runs argument-free and prints the paper's rows as an
// aligned table. Optional flags:
//   --csv               CSV instead of the aligned table
//   --trials=N          measurement repetitions per point (default 3, as in §5)
//   --quick             1 trial and a reduced sweep, for fast iteration
//   --seed=N            base seed
//   --jobs=N            worker threads for the sweep (default: all cores;
//                       1 runs the points one at a time, in grid order)
//   --metrics-out=FILE  write a JSON metrics snapshot (counters, gauges,
//                       latency histograms — see docs/OBSERVABILITY.md)
//                       accumulated over every simulated run to FILE at exit
//   --trace-out=FILE    write a Chrome/Perfetto trace-event JSON file at
//                       exit: one traced process per multicast run (causal
//                       packet spans, drop instants with causes, timeline
//                       counters) plus the per-run loss/stall attribution
//                       report — see docs/OBSERVABILITY.md
//
// The grid points behind a figure are independent simulations, so the
// binaries run them on a SweepRunner: submission returns immediately, rows
// print as their tickets resolve in submission order, and per-point metrics
// fold into bench_metrics() in that same order — output (table, CSV and
// snapshot alike) is byte-identical at any --jobs value. See
// src/harness/sweep.h for the determinism contract.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "harness/table.h"

namespace rmc::bench {

struct BenchOptions {
  bool csv = false;
  bool quick = false;
  int trials = 3;
  std::uint64_t seed = 1;
  std::size_t jobs = 0;     // sweep workers; 0 = hardware concurrency
  std::string metrics_out;  // empty = no snapshot
  std::string trace_out;    // empty = no trace export
};

// Process-wide metrics registry the bench run accumulates into when
// --metrics-out is given. One registry per binary: histograms aggregate
// the whole sweep's distribution, counters sum over every run, gauges
// keep sweep-wide high-water marks.
inline metrics::Registry& bench_metrics() {
  static metrics::Registry registry;
  return registry;
}

// Process-wide trace log the sweep runner folds per-run traces into when
// --trace-out is given, strictly in ticket order (byte-identical at any
// --jobs value).
inline harness::TraceLog& bench_trace() {
  static harness::TraceLog log;
  return log;
}

namespace detail {

inline std::string& metrics_out_path() {
  static std::string path;
  return path;
}

inline std::string& trace_out_path() {
  static std::string path;
  return path;
}

inline void write_trace_export() {
  const std::string& path = trace_out_path();
  if (path.empty()) return;
  if (!bench_trace().write_json_file(path)) {
    std::fprintf(stderr, "could not write trace export to %s\n", path.c_str());
  }
}

inline void write_metrics_snapshot() {
  const std::string& path = metrics_out_path();
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not write metrics snapshot to %s\n", path.c_str());
    return;
  }
  bench_metrics().write_json(out);
  std::fclose(out);
}

}  // namespace detail

// Arms the at-exit JSON snapshot of bench_metrics(). parse_options calls
// this for --metrics-out; binaries with bespoke flag sets call it directly
// (before their first measurement, so the snapshot handler registers ahead
// of the sweep runner's construction — see bench_runner).
inline void enable_metrics_snapshot(const std::string& path) {
  if (path.empty()) return;
  // Construct the registry (and the path string) before registering the
  // handler: atexit runs in reverse registration order, so anything the
  // handler touches must already exist here or it is destroyed first.
  (void)bench_metrics();
  detail::metrics_out_path() = path;
  // Written at exit so every code path (including early returns) still
  // produces a parseable snapshot.
  std::atexit(detail::write_metrics_snapshot);
}

// Arms the at-exit trace-event JSON export of bench_trace(). Same atexit
// ordering contract as enable_metrics_snapshot: register before the lazy
// sweep runner is first touched, so the runner drains and folds every
// trace before the file is written.
inline void enable_trace_export(const std::string& path) {
  if (path.empty()) return;
  (void)bench_trace();
  detail::trace_out_path() = path;
  std::atexit(detail::write_trace_export);
}

// True when this process is accumulating metrics (--metrics-out given).
inline bool metrics_enabled(const BenchOptions& options) {
  return !options.metrics_out.empty();
}

// True when this process is collecting causal traces (--trace-out given).
inline bool trace_enabled(const BenchOptions& options) {
  return !options.trace_out.empty();
}

// The process-wide sweep runner, sized by --jobs on first use. Constructed
// lazily AFTER parse_options has registered the snapshot atexit handler:
// static destruction is LIFO, so the runner's destructor (drain + fold +
// join) runs before the snapshot writes — a snapshot can never observe a
// half-folded registry.
inline harness::SweepRunner& bench_runner(const BenchOptions& options) {
  static harness::SweepRunner runner([&] {
    harness::SweepRunner::Options o;
    o.jobs = options.jobs;
    o.metrics = metrics_enabled(options) ? &bench_metrics() : nullptr;
    o.trace = trace_enabled(options) ? &bench_trace() : nullptr;
    return o;
  }());
  return runner;
}

inline BenchOptions parse_options(int argc, char** argv) {
  Flags flags = Flags::parse(
      argc, argv,
      {{"csv", "emit CSV instead of an aligned table"},
       {"quick", "single trial, reduced sweep"},
       {"trials", "trials per point (default 3)"},
       {"seed", "base seed (default 1)"},
       {"jobs", "sweep worker threads (default: all cores; 1 = serial)"},
       {"metrics-out", "write a JSON metrics snapshot to FILE at exit"},
       {"trace-out", "write a Perfetto trace-event JSON file to FILE at exit"}});
  BenchOptions options;
  options.csv = flags.has("csv");
  options.quick = flags.has("quick");
  options.trials = static_cast<int>(flags.get_int("trials", options.quick ? 1 : 3));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  options.metrics_out = flags.get("metrics-out", "");
  options.trace_out = flags.get("trace-out", "");
  enable_metrics_snapshot(options.metrics_out);
  enable_trace_export(options.trace_out);
  if (metrics_enabled(options)) {
    // Snapshot provenance (the "meta" block). Values that vary across a
    // merged sweep collapse to "mixed"; the protocol and seed are filled
    // per run by the harness.
    metrics::Registry& m = bench_metrics();
    std::string binary = argc > 0 && argv[0] != nullptr ? argv[0] : "unknown";
    if (auto slash = binary.find_last_of('/'); slash != std::string::npos) {
      binary = binary.substr(slash + 1);
    }
    m.set_meta("binary", binary);
    m.set_meta("jobs", std::to_string(options.jobs));
#ifdef RMC_GIT_DESCRIBE
    m.set_meta("git", RMC_GIT_DESCRIBE);
#else
    m.set_meta("git", "unknown");
#endif
  }
  return options;
}

inline void emit(const harness::Table& table, const BenchOptions& options,
                 const std::string& title) {
  if (options.csv) {
    table.print_csv();
    return;
  }
  std::printf("%s\n\n", title.c_str());
  table.print();
  std::printf("\n");
}

// A single in-flight run. get() blocks until the point has simulated; the
// reference stays valid for the process lifetime.
class RunHandle {
 public:
  RunHandle(harness::SweepRunner* runner, harness::SweepRunner::Ticket ticket)
      : runner_(runner), ticket_(ticket) {}
  const harness::RunResult& get() const { return runner_->result(ticket_); }

 private:
  harness::SweepRunner* runner_;
  harness::SweepRunner::Ticket ticket_;
};

// Enqueues one run on the sweep runner (metrics fold handled there).
inline RunHandle run_async(const harness::MulticastRunSpec& spec,
                           const BenchOptions& options) {
  harness::SweepRunner& runner = bench_runner(options);
  return RunHandle(&runner, runner.submit(spec));
}

// run_multicast through the sweep runner, so the run lands in the
// --metrics-out snapshot. Binaries that consume RunResult fields row by
// row call this (or run_async to overlap rows).
inline harness::RunResult run_instrumented(const harness::MulticastRunSpec& spec,
                                           const BenchOptions& options) {
  return run_async(spec, options).get();
}

// An in-flight repeated-trials measurement: one ticket per trial seed,
// the seeds running consecutively from `base_seed`.
class Measurement {
 public:
  Measurement(harness::SweepRunner* runner, std::uint64_t base_seed)
      : runner_(runner), base_seed_(base_seed) {}

  void add(harness::SweepRunner::Ticket ticket) { tickets_.push_back(ticket); }

  // Blocks for the trials; returns the outcome with the mean (or, on any
  // failed trial, the failing seed and the run's error).
  harness::TrialsOutcome outcome() const {
    return harness::run_trials(
        [this](std::uint64_t seed) -> const harness::RunResult& {
          return runner_->result(tickets_[seed - base_seed_]);
        },
        static_cast<int>(tickets_.size()), base_seed_);
  }

  // Mean seconds, or -1 after reporting the failing trial on stderr (a
  // FAILED table cell then has its seed and cause next to it).
  double seconds() const {
    const harness::TrialsOutcome out = outcome();
    if (!out.ok) {
      std::fprintf(stderr, "measure: trial failed (%s)\n",
                   out.describe_failure().c_str());
    }
    return out.mean_seconds;
  }

 private:
  harness::SweepRunner* runner_;
  std::uint64_t base_seed_;
  std::vector<harness::SweepRunner::Ticket> tickets_;
};

// Enqueues the configured trials of `base` (seed, seed+1, ...) and returns
// the in-flight measurement. Two-phase sweeps submit every cell first,
// then redeem in row order — workers fill the grid while rows print.
inline Measurement measure_async(const harness::MulticastRunSpec& base,
                                 const BenchOptions& options) {
  harness::SweepRunner& runner = bench_runner(options);
  Measurement m(&runner, options.seed);
  for (int t = 0; t < options.trials; ++t) {
    harness::MulticastRunSpec spec = base;
    spec.seed = options.seed + static_cast<std::uint64_t>(t);
    m.add(runner.submit(spec));
  }
  return m;
}

// measure_async for runs that are not a MulticastRunSpec (TCP/UDP
// baselines, bespoke probes): `runner_fn(seed)` executes on a worker.
inline Measurement measure_async(
    const std::function<harness::RunResult(std::uint64_t)>& runner_fn,
    const BenchOptions& options) {
  harness::SweepRunner& runner = bench_runner(options);
  Measurement m(&runner, options.seed);
  for (int t = 0; t < options.trials; ++t) {
    const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(t);
    m.add(runner.submit_task(
        [runner_fn, seed](metrics::Registry*) { return runner_fn(seed); }));
  }
  return m;
}

inline std::string seconds_cell(double seconds) {
  if (seconds < 0) return "FAILED";
  return str_format("%.6f", seconds);
}

}  // namespace rmc::bench
