// The parallel sweep engine's contract: byte-identical to serial.
//
// The bench tier trusts SweepRunner with every figure/table grid, so this
// suite pins the properties that make --jobs=N safe to default on:
//
//   * spec_fingerprint covers every knob that can change a run's outcome
//     (and ignores the out-of-band channels that cannot);
//   * a parallel sweep produces the same per-point results AND the same
//     merged metrics snapshot (full JSON) as a serial one;
//   * the content-hash cache deduplicates identical points without
//     changing any observable output, and can be turned off;
//   * a failed or throwing point is reported on its own ticket without
//     poisoning the rest of the batch;
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

TEST(SpecFingerprint, EqualSpecsHashEqual) {
  MulticastRunSpec a = small_spec(rmcast::ProtocolKind::kAck, 7);
  MulticastRunSpec b = small_spec(rmcast::ProtocolKind::kAck, 7);
  EXPECT_EQ(spec_fingerprint(a), spec_fingerprint(b));
}

TEST(SpecFingerprint, SensitiveToEveryOutcomeAffectingKnob) {
  const MulticastRunSpec base = small_spec(rmcast::ProtocolKind::kAck, 7);
  const std::uint64_t base_fp = spec_fingerprint(base);

  auto differs = [&](auto mutate) {
    MulticastRunSpec spec = base;
    mutate(spec);
    return spec_fingerprint(spec) != base_fp;
  };
  EXPECT_TRUE(differs([](MulticastRunSpec& s) { s.seed = 8; }));
  EXPECT_TRUE(differs([](MulticastRunSpec& s) { s.n_receivers = 9; }));
  EXPECT_TRUE(differs([](MulticastRunSpec& s) { s.message_bytes += 1; }));
  EXPECT_TRUE(differs(
      [](MulticastRunSpec& s) { s.protocol.kind = rmcast::ProtocolKind::kRing; }));
  EXPECT_TRUE(differs([](MulticastRunSpec& s) { s.protocol.window_size = 21; }));
  EXPECT_TRUE(differs([](MulticastRunSpec& s) { s.protocol.selective_repeat = true; }));
  EXPECT_TRUE(
      differs([](MulticastRunSpec& s) { s.cluster.link.frame_error_rate = 0.01; }));
  EXPECT_TRUE(differs(
      [](MulticastRunSpec& s) { s.cluster.wiring = inet::Wiring::kSharedBus; }));
  EXPECT_TRUE(differs(
      [](MulticastRunSpec& s) { s.cluster.host.send_syscall = sim::microseconds(9); }));
  EXPECT_TRUE(
      differs([](MulticastRunSpec& s) { s.faults.crash(3, sim::milliseconds(5)); }));
  EXPECT_TRUE(differs([](MulticastRunSpec& s) { s.time_limit = sim::seconds(1.0); }));
  EXPECT_TRUE(differs([](MulticastRunSpec& s) { s.verify_payload = false; }));
}

TEST(SpecFingerprint, IgnoresOutOfBandChannels) {
  const MulticastRunSpec base = small_spec(rmcast::ProtocolKind::kAck, 7);
  MulticastRunSpec spec = base;
  metrics::Registry registry;
  spec.metrics = &registry;
  trace::Tracer tracer;
  spec.tracer = &tracer;
  EXPECT_EQ(spec_fingerprint(spec), spec_fingerprint(base));
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

TEST(SweepRunner, CacheDeduplicatesIdenticalSpecs) {
  const MulticastRunSpec spec = small_spec(rmcast::ProtocolKind::kAck, 3);

  SweepRunner::Options options;
  options.jobs = 1;
  SweepRunner runner(options);
  const SweepRunner::Ticket a = runner.submit(spec);
  const SweepRunner::Ticket b = runner.submit(spec);
  const SweepRunner::Ticket c = runner.submit(spec);

  const RunResult& ra = runner.result(a);
  const RunResult& rb = runner.result(b);
  const RunResult& rc = runner.result(c);
  EXPECT_TRUE(ra.completed);
  EXPECT_EQ(ra.seconds, rb.seconds);
  EXPECT_EQ(ra.seconds, rc.seconds);

  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

// A cache hit must fold the shared point's metrics once per ticket, so the
// merged snapshot reads as if every ticket had re-run — identical to a
// cache-off sweep of the same tickets.
TEST(SweepRunner, CacheDoesNotChangeTheMergedSnapshot) {
  const MulticastRunSpec spec = small_spec(rmcast::ProtocolKind::kNakPolling, 5);

  auto sweep = [&](bool cache) {
    metrics::Registry registry;
    {
      SweepRunner::Options options;
      options.jobs = 1;
      options.metrics = &registry;
      options.cache = cache;
      SweepRunner runner(options);
      runner.submit(spec);
      runner.submit(spec);
      runner.wait_all();
    }
    return registry.to_json();
  };

  EXPECT_EQ(sweep(true), sweep(false));
}

TEST(SweepRunner, CacheOffReexecutesEveryTicket) {
  const MulticastRunSpec spec = small_spec(rmcast::ProtocolKind::kAck, 3);

  SweepRunner::Options options;
  options.jobs = 1;
  options.cache = false;
  SweepRunner runner(options);
  runner.submit(spec);
  runner.submit(spec);
  runner.wait_all();

  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

// A spec carrying its own tracer writes through an out-of-band channel
// the cache cannot replay, so it must bypass the cache.
TEST(SweepRunner, TracerBypassesCache) {
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

  const SweepRunner::Stats stats = runner.stats();
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_FALSE(trace_a.events().empty());
  EXPECT_EQ(trace_a.events().size(), trace_b.events().size());
}

TEST(SweepRunner, SubmitTaskRunsArbitraryWork) {
  SweepRunner::Options options;
  options.jobs = 4;
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
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.seconds, 0.25 * i);
  }
}

// One bad point in a parallel batch: its ticket reports the failure, every
// other ticket is unaffected.
TEST(SweepRunner, FailureStaysOnItsOwnTicket) {
  SweepRunner::Options options;
  options.jobs = 4;
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
      EXPECT_TRUE(r.completed) << "point " << i;
      EXPECT_EQ(r.seconds, 1.0 + i);
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
