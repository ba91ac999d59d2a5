// The parallel sweep engine's contract: byte-identical to serial.
//
// The bench tier trusts SweepRunner with every figure/table grid, so this
// suite pins the properties that make --jobs=N safe to default on:
//
//   * a parallel sweep produces the same per-point results AND the same
//     merged metrics snapshot (full JSON) as a serial one;
//   * every ticket runs its own spec, and the merged snapshot equals the
//     serial run_multicast accumulation of the same specs;
//   * a failed or throwing point is reported on its own ticket without
//     poisoning the rest of the batch, at one worker or several;
//   * run_trials surfaces which seed failed and why.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "harness/experiment.h"
#include "harness/sweep.h"

namespace rmc::harness {
namespace {

// A transfer small enough that a grid of them stays fast under sanitizers.
MulticastRunSpec small_spec(rmcast::ProtocolKind kind, std::uint64_t seed) {
  MulticastRunSpec spec;
  spec.n_receivers = 8;
  spec.message_bytes = 60'000;
  spec.protocol.kind = kind;
  spec.protocol.packet_size = 8000;
  spec.protocol.window_size = 20;
  if (kind == rmcast::ProtocolKind::kNakPolling) spec.protocol.poll_interval = 6;
  spec.seed = seed;
  return spec;
}

std::vector<MulticastRunSpec> small_grid() {
  std::vector<MulticastRunSpec> grid;
  for (rmcast::ProtocolKind kind :
       {rmcast::ProtocolKind::kAck, rmcast::ProtocolKind::kNakPolling,
        rmcast::ProtocolKind::kBinaryTree}) {
    for (std::uint64_t seed : {1, 2}) {
      grid.push_back(small_spec(kind, seed));
    }
  }
  return grid;
}

// The tentpole property: run the same grid serially and with four workers
// and require identical per-point results and a byte-identical merged
// metrics snapshot. (Even on one core, four workers interleave ticket
// completion enough to exercise the fold-cursor ordering.)
TEST(SweepRunner, ParallelSweepIsByteIdenticalToSerial) {
  const std::vector<MulticastRunSpec> grid = small_grid();

  auto sweep = [&](std::size_t jobs, std::string* json) {
    metrics::Registry registry;
    std::vector<RunResult> results;
    {
      SweepRunner::Options options;
      options.jobs = jobs;
      options.metrics = &registry;
      SweepRunner runner(options);
      std::vector<SweepRunner::Ticket> tickets;
      for (const MulticastRunSpec& spec : grid) tickets.push_back(runner.submit(spec));
      for (SweepRunner::Ticket t : tickets) results.push_back(runner.result(t));
    }
    *json = registry.to_json();
    return results;
  };

  std::string serial_json, parallel_json;
  const std::vector<RunResult> serial = sweep(1, &serial_json);
  const std::vector<RunResult> parallel = sweep(4, &parallel_json);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i].completed) << "point " << i;
    EXPECT_TRUE(parallel[i].completed) << "point " << i;
    EXPECT_EQ(serial[i].seconds, parallel[i].seconds) << "point " << i;
    EXPECT_EQ(serial[i].events_executed, parallel[i].events_executed)
        << "point " << i;
    EXPECT_EQ(serial[i].sender.retransmissions, parallel[i].sender.retransmissions)
        << "point " << i;
    EXPECT_EQ(serial[i].link_drops, parallel[i].link_drops) << "point " << i;
  }
  EXPECT_EQ(serial_json, parallel_json);
}

// Two EC-RS specs that differ only in their erasure-code geometry: each
// ticket must carry the outcome of its own spec, exactly as a direct
// run_multicast of that spec reports it.
TEST(SweepRunner, EveryTicketRunsItsOwnSpec) {
  std::vector<MulticastRunSpec> specs;
  for (std::size_t k : {16, 32}) {
    MulticastRunSpec spec = small_spec(rmcast::ProtocolKind::kEcRs, 3);
    spec.message_bytes = 41 * spec.protocol.packet_size;
    spec.protocol.fec.k = k;
    spec.protocol.fec.m = k / 4;
    spec.protocol.window_size = 44;
    spec.protocol.selective_repeat = true;
    spec.protocol.receiver_driven_timeouts = true;
    specs.push_back(spec);
  }
  std::vector<RunResult> direct;
  for (const MulticastRunSpec& spec : specs) {
    direct.push_back(run_multicast(spec));
    ASSERT_TRUE(direct.back().completed) << direct.back().error;
  }
  for (std::size_t jobs : {1, 4}) {
    SweepRunner::Options options;
    options.jobs = jobs;
    SweepRunner runner(options);
    std::vector<SweepRunner::Ticket> tickets;
    for (const MulticastRunSpec& spec : specs) tickets.push_back(runner.submit(spec));
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const RunResult& swept = runner.result(tickets[i]);
      ASSERT_TRUE(swept.completed) << swept.error;
      EXPECT_EQ(swept.sender.parity_packets_sent, direct[i].sender.parity_packets_sent)
          << "jobs " << jobs << ", k " << specs[i].protocol.fec.k;
      EXPECT_EQ(swept.seconds, direct[i].seconds) << "jobs " << jobs << ", point " << i;
    }
  }
}

// The merged snapshot is the serial accumulation: run_multicast on each
// spec in submission order, each run's registry merged into one. The grid
// repeats a spec, and the repeat folds its metrics a second time like any
// other point.
TEST(SweepRunner, FoldMatchesSerialRunMulticast) {
  std::vector<MulticastRunSpec> grid = small_grid();
  grid.push_back(grid.front());

  metrics::Registry serial;
  for (MulticastRunSpec spec : grid) {
    metrics::Registry point;
    spec.metrics = &point;
    ASSERT_TRUE(run_multicast(spec).completed);
    serial.merge(point);
  }
  for (std::size_t jobs : {1, 4}) {
    metrics::Registry swept;
    {
      SweepRunner::Options options;
      options.jobs = jobs;
      options.metrics = &swept;
      SweepRunner runner(options);
      for (const MulticastRunSpec& spec : grid) runner.submit(spec);
      runner.wait_all();
    }
    EXPECT_EQ(swept.to_json(), serial.to_json()) << "jobs " << jobs;
  }
}

// Without a runner trace sink, a spec's own tracer receives its trace.
TEST(SweepRunner, SpecTracerReceivesItsTraceWithoutASink) {
  MulticastRunSpec spec = small_spec(rmcast::ProtocolKind::kAck, 3);
  trace::Tracer trace_a, trace_b;

  SweepRunner::Options options;
  options.jobs = 1;
  SweepRunner runner(options);
  spec.tracer = &trace_a;
  runner.submit(spec);
  spec.tracer = &trace_b;
  runner.submit(spec);
  runner.wait_all();

  EXPECT_FALSE(trace_a.events().empty());
  EXPECT_TRUE(trace_a.same_as(trace_b));
}

TEST(SweepRunner, SubmitTaskRunsArbitraryWork) {
  for (std::size_t jobs : {1, 4}) {
    SweepRunner::Options options;
    options.jobs = jobs;
    SweepRunner runner(options);
    std::vector<SweepRunner::Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
      tickets.push_back(runner.submit_task([i](metrics::Registry*) {
        RunResult result;
        result.completed = true;
        result.seconds = 0.25 * i;
        return result;
      }));
    }
    for (int i = 0; i < 8; ++i) {
      const RunResult& r = runner.result(tickets[i]);
      EXPECT_TRUE(r.completed) << "jobs " << jobs;
      EXPECT_EQ(r.seconds, 0.25 * i) << "jobs " << jobs;
    }
  }
}

// One bad point in a batch: its ticket reports the failure, every other
// ticket is unaffected.
TEST(SweepRunner, FailureStaysOnItsOwnTicket) {
  for (std::size_t jobs : {1, 4}) {
    SweepRunner::Options options;
    options.jobs = jobs;
    SweepRunner runner(options);
    std::vector<SweepRunner::Ticket> tickets;
    for (int i = 0; i < 6; ++i) {
      tickets.push_back(runner.submit_task([i](metrics::Registry*) -> RunResult {
        if (i == 3) throw std::runtime_error("injected point failure");
        RunResult result;
        result.completed = true;
        result.seconds = 1.0 + i;
        return result;
      }));
    }
    for (int i = 0; i < 6; ++i) {
      const RunResult& r = runner.result(tickets[i]);
      if (i == 3) {
        EXPECT_FALSE(r.completed);
        EXPECT_EQ(r.error, "injected point failure");
      } else {
        EXPECT_TRUE(r.completed) << "jobs " << jobs << ", point " << i;
        EXPECT_EQ(r.seconds, 1.0 + i);
      }
    }
  }
}

TEST(RunTrials, ReportsMeanOverCompletedSeeds) {
  TrialsOutcome outcome = run_trials(
      [](std::uint64_t seed) {
        RunResult r;
        r.completed = true;
        r.seconds = static_cast<double>(seed);
        return r;
      },
      3, 10);
  EXPECT_TRUE(outcome.ok);
  EXPECT_DOUBLE_EQ(outcome.mean_seconds, 11.0);  // seeds 10, 11, 12
}

TEST(RunTrials, SurfacesTheFailingSeedAndError) {
  TrialsOutcome outcome = run_trials(
      [](std::uint64_t seed) {
        RunResult r;
        r.completed = seed != 12;
        r.seconds = 1.0;
        if (!r.completed) r.error = "timed out after 120.0s";
        return r;
      },
      3, 10);
  EXPECT_FALSE(outcome.ok);
  EXPECT_LT(outcome.mean_seconds, 0.0);
  EXPECT_EQ(outcome.failed_seed, 12u);
  EXPECT_EQ(outcome.error, "timed out after 120.0s");
  EXPECT_NE(outcome.describe_failure().find("seed 12"), std::string::npos);
  EXPECT_NE(outcome.describe_failure().find("timed out"), std::string::npos);
}

TEST(RunTrials, FailureWithoutDetailGetsAStockMessage) {
  TrialsOutcome outcome = run_trials(
      [](std::uint64_t) {
        return RunResult{};  // completed = false, no error text
      },
      1, 4);
  EXPECT_FALSE(outcome.ok);
  EXPECT_EQ(outcome.failed_seed, 4u);
  EXPECT_EQ(outcome.error, "run did not complete");
}

}  // namespace
}  // namespace rmc::harness
