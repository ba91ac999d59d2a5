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
//   * A content-hash cache (spec_fingerprint over protocol config, cluster
//     topology, fault plan, seed and message geometry) deduplicates
//     identical points within a process: grids frequently revisit a
//     configuration (baseline columns, penalty ratios), and the simulator
//     is deterministic, so re-running one is pure waste. Cache hits still
//     fold the point's metrics once per ticket, keeping the snapshot
//     equivalent to having re-run it.
//
// Scheduling is work-stealing over per-worker deques: a worker pops its own
// deque from the front and steals from the back of a victim's when empty.
// All queues share one mutex — sweep tasks are whole simulations
// (milliseconds to seconds each), so queue-lock contention is noise and
// correctness stays easy to audit.
//
// With jobs == 1 no threads are created at all: submit() executes the point
// inline, preserving the exact execution order (and thus RNG/arena/flight-
// recorder behaviour) of the pre-parallel harness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/trace_export.h"

namespace rmc::harness {

// Content hash of everything that determines a run's outcome: protocol
// config, cluster topology (host cost model, link/bus parameters, injected
// link faults), fault plan, seed, message geometry, time limit and verify
// flag. Two specs with equal fingerprints produce identical RunResults
// (the simulator is deterministic); the sweep cache relies on this.
// Out-of-band channels (metrics, tracer pointers) are excluded — they do
// not affect the simulation.
std::uint64_t spec_fingerprint(const MulticastRunSpec& spec);

class SweepRunner {
 public:
  // Tickets are dense indices in submission order.
  using Ticket = std::size_t;
  // A unit of work: runs a point, publishing metrics (if any) into the
  // supplied private registry (never null when the runner has a sink;
  // null when metrics are disabled).
  using Task = std::function<RunResult(metrics::Registry*)>;

  struct Options {
    // Worker threads; 0 = hardware_concurrency. 1 = serial inline mode.
    std::size_t jobs = 0;
    // Sink the per-point registries fold into, in ticket order. Null
    // disables per-point registries entirely.
    metrics::Registry* metrics = nullptr;
    // Trace sink: when set, every multicast point runs with a private
    // trace::Tracer and the finished traces are appended here strictly in
    // ticket order (cache hits append a copy per ticket), so the log is
    // byte-identical for --jobs=1 and --jobs=N. Null disables tracing.
    TraceLog* trace = nullptr;
    // Deduplicate identical specs by fingerprint.
    bool cache = true;
  };

  struct Stats {
    std::uint64_t submitted = 0;   // tickets issued
    std::uint64_t executed = 0;    // points actually simulated
    std::uint64_t cache_hits = 0;  // tickets served from the cache
    std::uint64_t steals = 0;      // tasks taken from another worker's deque
  };

  explicit SweepRunner(Options options);
  // Drains outstanding work, folds every remaining registry into the sink,
  // joins the workers.
  ~SweepRunner();

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  // Enqueues one simulation point. Cacheable: an identical spec already
  // submitted shares its execution. The spec's `metrics` field is ignored
  // (the runner supplies the private registry), and so is its `tracer`
  // when the runner has a trace sink; a spec carrying its own tracer
  // bypasses the cache (an out-of-band output the cache cannot replay).
  // `trace_label` names the point in the trace log (defaults to
  // "point<ticket>").
  Ticket submit(const MulticastRunSpec& spec, std::string trace_label = {});

  // Enqueues an arbitrary task (TCP/UDP baselines, bespoke probes).
  // Never cached, never traced.
  Ticket submit_task(Task task);

  // Blocks until the ticket's point has run (helping is not needed: with
  // jobs == 1 the work already ran inline at submit). The reference stays
  // valid for the runner's lifetime.
  const RunResult& result(Ticket ticket);

  // Blocks until every submitted point has run and folded.
  void wait_all();

  std::size_t jobs() const { return jobs_; }
  Stats stats() const;

 private:
  struct Job;
  struct Impl;

  std::size_t jobs_ = 1;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rmc::harness
