// Experiment runners: one simulated message transfer, measured the way the
// paper measures it.
//
// "Communication time" is the interval from the application's send() call
// to the moment the sender knows every receiver holds the message (for the
// reliable protocols), to the completion of the last sequential transfer
// (TCP fan-out), or to the arrival of the last receiver's reply (raw UDP)
// — matching §5's methodology. Like the paper, run_trials() repeats each
// measurement (default three times, with different seeds standing in for
// the testbed's run-to-run randomness) and reports the average.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "harness/trace.h"
#include "inet/cluster.h"
#include "rmcast/config.h"
#include "rmcast/session.h"
#include "rmcast/report.h"
#include "rmcast/stats.h"
#include "sim/fault.h"

namespace rmc::harness {

struct MulticastRunSpec {
  std::size_t n_receivers = 30;
  rmcast::ProtocolConfig protocol;
  std::uint64_t message_bytes = 500'000;
  std::uint64_t seed = 1;
  inet::ClusterParams cluster;  // n_hosts is derived from n_receivers
  // Abort the run if the simulated clock passes this limit.
  sim::Time time_limit = sim::seconds(120.0);
  // Scripted faults (receiver crashes, pauses, link flaps), applied to
  // the testbed before traffic starts. Targets are receiver node ids.
  sim::FaultPlan faults;
  // Verify every receiver got a byte-exact copy (leave on; cheap).
  // Receivers the SendOutcome marks evicted are exempt.
  bool verify_payload = true;
  // Optional metrics sink (not owned; must outlive the run). When set,
  // the run publishes protocol histograms (delivery latency, ACK RTT),
  // mirrored protocol counters, and network-tier gauges/counters (switch
  // port queue high-water marks, drops, link-busy time) into it —
  // accumulating across runs, so one registry can absorb a whole sweep.
  // See docs/OBSERVABILITY.md for the metric names.
  metrics::Registry* metrics = nullptr;
  // Optional control-message trace capture: when set, the run attaches a
  // TraceRecorder to the sender and copies every protocol event (alloc,
  // transmit, ack, nak, timeout, complete — with timestamps) here. The
  // determinism suite diffs these traces across runs and event cores.
  std::vector<TraceRecorder::Event>* sender_trace = nullptr;
  // Causal tracing (not owned; must outlive the run): when set, the run
  // installs the rmcast packet tagger, attaches the tracer to the sender,
  // every receiver and every network element, records the fault plan, and
  // runs the sim-time timeline sampler. The tracer accumulates across
  // runs; pass a fresh one per run (see harness::TraceLog) for per-run
  // traces. Tracing is read-only: a traced run's result, metrics and
  // sender trace are byte-identical to the untraced run's.
  trace::Tracer* tracer = nullptr;
  // Timeline sampling interval (sim time; <=0 disables the sampler).
  sim::Time timeline_interval = sim::milliseconds(1);
};

struct RunResult {
  bool completed = false;
  double seconds = 0.0;  // communication time
  double throughput_bps() const;
  std::uint64_t message_bytes = 0;

  rmcast::SenderStats sender;
  std::vector<rmcast::ReceiverStats> receivers;
  // Per-receiver delivery report from the sender's completion callback
  // (empty receivers vector when the run timed out before completing).
  rmcast::SendOutcome outcome;
  std::uint64_t rcvbuf_drops = 0;
  std::uint64_t link_drops = 0;  // queue + frame-error drops, all ports
  // Injected-fault losses, all ports: frames dropped by a downed link or
  // the Gilbert–Elliott burst channel.
  std::uint64_t fault_drops = 0;
  // Utilization of the sender host over the run — the two candidate
  // bottlenecks of every experiment in the paper.
  double sender_cpu_busy_seconds = 0.0;
  double sender_nic_busy_seconds = 0.0;
  // Simulator events executed over the run — the event-budget bound the
  // stress suite asserts termination against.
  std::uint64_t events_executed = 0;
  std::string error;

  // Aggregates across receivers, for Table 2-style accounting.
  std::uint64_t total_acks_sent() const;
  std::uint64_t total_naks_sent() const;
};

// One reliable-multicast transfer on a fresh simulated Session.
RunResult run_multicast(const MulticastRunSpec& spec);

// The deterministic payload every harness transfer sends: byte i is
// i * 131 + 7 + offset (tenants use distinct offsets, so a cross-group
// delivery mixup fails the payload check).
Buffer make_pattern(std::uint64_t n_bytes, std::uint64_t offset = 0);

// One message sent through a Session and checked the same way everywhere
// (run_multicast and the tenant mix on the simulator, the parity harness
// on real sockets). Construction installs the session's message handler,
// start() issues the send, run() drives the backend until completion or
// `limit` (see Session::run_until), and result() turns the finished
// session into a RunResult: sender and receiver stats (zero for receivers
// that never joined), the outcome, the rcvbuf drops, and the delivery
// check — every receiver the sender did not evict delivered exactly one
// copy, byte-exact unless `verify_payload` is off.
class SessionTransfer {
 public:
  SessionTransfer(rmcast::Session& session, Buffer message, bool verify_payload = true);
  SessionTransfer(const SessionTransfer&) = delete;
  SessionTransfer& operator=(const SessionTransfer&) = delete;

  void start();
  void run(sim::Time limit);
  bool done() const { return done_; }
  sim::Time completed_at() const { return completed_at_; }
  RunResult result() const;

 private:
  rmcast::Session& session_;
  const Buffer message_;
  const bool verify_payload_;
  std::vector<std::uint32_t> copies_;  // deliveries per receiver
  std::vector<bool> intact_;           // the last delivered copy matched
  bool done_ = false;
  sim::Time started_at_ = 0;
  sim::Time completed_at_ = 0;
  sim::Time limit_ = 0;
  rmcast::SendOutcome outcome_;
};

// Publishes the backend-neutral protocol metrics of one run — the
// `harness.*`, `sender.*` and `receiver.*` names — into the registry.
// Both execution backends go through this one function, so the simulated
// and the real-socket (parity harness) snapshots carry identical key sets
// by construction; only the backend-specific tiers differ (`net.*` on the
// simulator, `posix.*` on real sockets). run_multicast calls this
// internally; the parity harness calls it for its PosixSession run.
void export_protocol_metrics(const RunResult& result, bool done,
                             metrics::Registry& m);

// Figure 8 baseline: sequential TCP fan-out of `message_bytes` to each
// receiver.
RunResult run_tcp_fanout(std::size_t n_receivers, std::uint64_t message_bytes,
                         std::uint64_t seed, inet::ClusterParams cluster = {});

// Figure 9 baseline: unreliable UDP multicast blast, completion on the
// last receiver's reply.
RunResult run_raw_udp(std::size_t n_receivers, std::uint64_t message_bytes,
                      std::size_t packet_size, std::uint64_t seed,
                      inet::ClusterParams cluster = {});

// Outcome of a repeated-trials measurement. A failed trial carries which
// seed failed and the failing run's error, so a FAILED table cell can be
// diagnosed (reproduce with --seed=failed_seed) instead of just observed.
struct TrialsOutcome {
  bool ok = false;
  double mean_seconds = -1.0;  // negative unless ok
  std::uint64_t failed_seed = 0;
  std::string error;  // failing trial's RunResult::error

  // One-line failure description, e.g. "seed 12: timed out after 120.0s".
  std::string describe_failure() const;
};

// Averages `runner(seed)` over `trials` seeds (the paper uses three runs).
// Every trial must complete; the first failure stops the measurement and
// is reported in the outcome.
template <typename Runner>
TrialsOutcome run_trials(Runner&& runner, int trials = 3, std::uint64_t base_seed = 1) {
  TrialsOutcome outcome;
  double sum = 0.0;
  for (int t = 0; t < trials; ++t) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(t);
    RunResult result = runner(seed);
    if (!result.completed) {
      outcome.failed_seed = seed;
      outcome.error = result.error.empty() ? "run did not complete" : result.error;
      return outcome;
    }
    sum += result.seconds;
  }
  outcome.ok = true;
  outcome.mean_seconds = trials > 0 ? sum / trials : 0.0;
  return outcome;
}

}  // namespace rmc::harness
