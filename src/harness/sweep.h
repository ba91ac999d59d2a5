// Parallel sweep engine: runs independent (spec, seed) simulation points
// across worker threads while keeping every observable output byte-identical
// to a serial run.
//
// Every figure and table in the paper is a grid of independent simulated
// transfers — embarrassingly parallel, but the bench harness must not let
// parallelism show: tables print in grid order, and the merged metrics
// snapshot must match what a serial sweep would have produced. The runner
// gets both by construction:
//
//   * submit() returns a Ticket immediately; result() blocks until that
//     point has run. Callers redeem tickets in submission order, so the
//     table/CSV text is identical for --jobs=1 and --jobs=N.
//   * Each point runs against a private metrics::Registry. A fold cursor
//     merges completed registries into the caller's sink strictly in
//     ticket order (metrics::Registry::merge), so the merged snapshot is
//     byte-identical to the serial accumulation regardless of which worker
//     finished first.
//
// Every ticket runs exactly once. Scheduling is one FIFO queue popped by a
// pool of `jobs` workers under one mutex — sweep tasks are whole
// simulations (milliseconds to seconds each), so queue-lock contention is
// noise and correctness stays easy to audit. With jobs == 1 the pool has one
// worker, which runs the points serially in submission order.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "harness/experiment.h"
#include "harness/trace_export.h"

namespace rmc::harness {

class SweepRunner {
 public:
  // Tickets are dense indices in submission order.
  using Ticket = std::size_t;
  // A unit of work: runs a point, publishing metrics (if any) into the
  // supplied private registry (never null when the runner has a sink;
  // null when metrics are disabled).
  using Task = std::function<RunResult(metrics::Registry*)>;

  struct Options {
    // Worker threads; 0 = hardware_concurrency.
    std::size_t jobs = 0;
    // Sink the per-point registries fold into, in ticket order. Null
    // disables per-point registries entirely.
    metrics::Registry* metrics = nullptr;
    // Trace sink: when set, every multicast point runs with a private
    // trace::Tracer and the finished traces are appended here strictly in
    // ticket order, so the log is byte-identical for --jobs=1 and
    // --jobs=N. Null disables tracing.
    TraceLog* trace = nullptr;
  };

  explicit SweepRunner(Options options);
  // Drains outstanding work, folds every remaining registry into the sink,
  // joins the workers.
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  // Enqueues one simulation point. The spec's `metrics` field is ignored
  // (the runner supplies the private registry), and so is its `tracer`
  // when the runner has a trace sink. `trace_label` names the point in the
  // trace log (defaults to "point<ticket>").
  Ticket submit(const MulticastRunSpec& spec, std::string trace_label = {});

  // Enqueues an arbitrary task (TCP/UDP baselines, bespoke probes). Never
  // traced.
  Ticket submit_task(Task task);

  // Blocks until the ticket's point has run and folded. The reference
  // stays valid for the runner's lifetime.
  const RunResult& result(Ticket ticket);

  // Blocks until every submitted point has run and folded.
  void wait_all();

 private:
  struct Job;
  struct Impl;

  std::unique_ptr<Impl> impl_;
};

}  // namespace rmc::harness
