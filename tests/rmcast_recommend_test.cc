// Tests for the configuration recommender: the advice must follow the
// paper's conclusions and always be valid and functional.
#include <gtest/gtest.h>

#include "protocol_test_util.h"
#include "rmcast/engine/registry.h"
#include "rmcast/recommend.h"

namespace rmc::rmcast {
namespace {

TEST(Recommend, SmallMessagesGetSinglePacketAck) {
  for (std::uint64_t bytes : {std::uint64_t{1}, std::uint64_t{256}, std::uint64_t{8192},
                              std::uint64_t{50'000}}) {
    auto rec = recommend_config(bytes, 30);
    EXPECT_EQ(rec.config.kind, ProtocolKind::kAck) << bytes;
    EXPECT_GE(rec.config.packet_size, bytes) << "must fit one packet";
    EXPECT_EQ(rec.config.window_size, 2u);
    EXPECT_FALSE(rec.rationale.empty());
  }
}

TEST(Recommend, LargeMessagesGetNakPolling) {
  for (std::uint64_t bytes :
       {std::uint64_t{100'000}, std::uint64_t{500'000}, std::uint64_t{2'097'152}}) {
    auto rec = recommend_config(bytes, 30);
    EXPECT_EQ(rec.config.kind, ProtocolKind::kNakPolling) << bytes;
    EXPECT_EQ(rec.config.packet_size, 8000u);
    // Poll interval at 80-90% of the window (Figure 12's optimum).
    double ratio = static_cast<double>(rec.config.poll_interval) /
                   static_cast<double>(rec.config.window_size);
    EXPECT_GE(ratio, 0.75) << bytes;
    EXPECT_LE(ratio, 0.90) << bytes;
  }
}

TEST(Recommend, WindowScalesWithMessageButIsBounded) {
  auto small = recommend_config(100'000, 10);   // 13 packets
  auto large = recommend_config(8'000'000, 10);  // 1000 packets
  EXPECT_LE(small.config.window_size, 13u);
  EXPECT_GE(small.config.window_size, 8u);
  EXPECT_EQ(large.config.window_size, 50u);  // capped at the paper's buffer
}

class RecommendValidity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(RecommendValidity, AlwaysValidatesForItsGroup) {
  auto [bytes, receivers] = GetParam();
  auto rec = recommend_config(bytes, receivers);
  EXPECT_EQ(validate(rec.config, receivers), "")
      << bytes << " bytes, " << receivers << " receivers";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecommendValidity,
    ::testing::Combine(::testing::Values<std::uint64_t>(0, 1, 1000, 50'000, 50'001,
                                                        500'000, 10'000'000),
                       ::testing::Values<std::size_t>(1, 2, 16, 30, 100)));

// recommend_config routes through the registry's per-kind tuning hooks;
// the hooks themselves must produce valid configurations for EVERY
// registered kind (not just the two the recommender picks), so a new
// protocol cannot register a tuning the config layer rejects.
TEST(Recommend, EveryRegisteredKindsTuningValidates) {
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    for (std::uint64_t bytes : {std::uint64_t{1000}, std::uint64_t{500'000},
                                std::uint64_t{10'000'000}}) {
      for (std::size_t receivers : {std::size_t{1}, std::size_t{16}, std::size_t{30}}) {
        ProtocolConfig config;
        config.kind = e.kind;
        e.traits.apply_recommended_tuning(config, bytes, receivers);
        EXPECT_EQ(validate(config, receivers), "")
            << e.traits.display_name << ", " << bytes << " bytes, " << receivers
            << " receivers";
      }
    }
  }
}

// The recommendation must be reproducible from the registry alone: taking
// the recommended kind and applying that entry's tuning hook to a fresh
// config yields the exact knobs the recommender returned.
TEST(Recommend, AdviceMatchesTheRegistryTuningHook) {
  for (std::uint64_t bytes : {std::uint64_t{2000}, std::uint64_t{50'000},
                              std::uint64_t{500'000}, std::uint64_t{8'000'000}}) {
    auto rec = recommend_config(bytes, 30);
    ProtocolConfig replayed;
    replayed.kind = rec.config.kind;
    ProtocolRegistry::instance()
        .entry(rec.config.kind)
        .traits.apply_recommended_tuning(replayed, bytes, 30);
    EXPECT_EQ(replayed.packet_size, rec.config.packet_size) << bytes;
    EXPECT_EQ(replayed.window_size, rec.config.window_size) << bytes;
    EXPECT_EQ(replayed.poll_interval, rec.config.poll_interval) << bytes;
    EXPECT_EQ(replayed.tree_height, rec.config.tree_height) << bytes;
  }
}

// The loss-aware overload: clean and near-clean networks keep the
// paper's ARQ advice, frequent losses switch large messages to the
// Reed-Solomon hybrid, and small messages stay ARQ at any loss rate
// (they span a fraction of one FEC group).
TEST(Recommend, LossAwareAdviceSwitchesToHybridFec) {
  auto clean = recommend_config(2'000'000, 30, 0.0);
  EXPECT_EQ(clean.config.kind, ProtocolKind::kNakPolling);
  auto rare = recommend_config(2'000'000, 30, 0.005);
  EXPECT_EQ(rare.config.kind, ProtocolKind::kNakPolling);

  auto lossy = recommend_config(2'000'000, 30, 0.05);
  EXPECT_EQ(lossy.config.kind, ProtocolKind::kEcRs);
  EXPECT_EQ(lossy.config.fec.k, 32u);
  EXPECT_EQ(lossy.config.fec.m, 8u);
  EXPECT_GE(lossy.config.window_size, lossy.config.fec.group_size());
  EXPECT_EQ(validate(lossy.config, 30), "");
  EXPECT_FALSE(lossy.rationale.empty());

  auto small = recommend_config(2'000, 30, 0.05);
  EXPECT_EQ(small.config.kind, ProtocolKind::kAck);
}

TEST(Recommend, RecommendedConfigActuallyTransfers) {
  for (std::uint64_t bytes : {std::uint64_t{2000}, std::uint64_t{300'000}}) {
    auto rec = recommend_config(bytes, 6);
    test::ProtocolHarness h(6, rec.config);
    Buffer message = test::pattern(bytes);
    ASSERT_TRUE(h.send_and_run(message)) << bytes;
    h.expect_all_delivered({message});
  }
}

// Group-size-scaled timers leave the paper's grid alone: at N <= 30 every
// kind's recommended config keeps the default timers.
TEST(ScaleTimers, PaperGroupSizesKeepTheDefaultTimers) {
  const ProtocolConfig defaults;
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    for (std::size_t receivers : {std::size_t{1}, std::size_t{16}, std::size_t{30}}) {
      ProtocolConfig config;
      config.kind = e.kind;
      e.traits.apply_recommended_tuning(config, 2'000'000, receivers);
      const ProtocolConfig tuned = config;
      scale_timers_to_group(config, receivers);
      EXPECT_EQ(config, tuned) << e.traits.display_name << ", " << receivers;
      EXPECT_EQ(config.rto, defaults.rto) << e.traits.display_name;
      EXPECT_EQ(config.alloc_rto, defaults.alloc_rto) << e.traits.display_name;
      EXPECT_EQ(config.max_rto, defaults.max_rto) << e.traits.display_name;
      EXPECT_EQ(config.receiver_timeout, defaults.receiver_timeout) << e.traits.display_name;
    }
  }
  EXPECT_EQ(recommend_config(2'000'000, 30).config.rto, defaults.rto);
}

TEST(ScaleTimers, LargeGroupsGetTheFloors) {
  constexpr std::size_t kN = 1023;
  for (const EngineEntry& e : ProtocolRegistry::instance().entries()) {
    ProtocolConfig config;
    config.kind = e.kind;
    e.traits.apply_recommended_tuning(config, 131'072, kN);
    scale_timers_to_group(config, kN);
    EXPECT_EQ(config.rto, sim::microseconds(102'300)) << e.traits.display_name;
    EXPECT_EQ(config.alloc_rto, sim::microseconds(102'300)) << e.traits.display_name;
    EXPECT_EQ(config.max_rto, sim::seconds(2)) << e.traits.display_name;
    EXPECT_EQ(config.receiver_timeout, config.receiver_driven_timeouts
                                           ? sim::milliseconds(1023)
                                           : sim::milliseconds(30))
        << e.traits.display_name;
  }
  // max_rto follows an rto raised past it.
  ProtocolConfig config;
  scale_timers_to_group(config, 30'000);
  EXPECT_EQ(config.rto, sim::seconds(3));
  EXPECT_EQ(config.max_rto, config.rto);
  EXPECT_EQ(recommend_config(131'072, kN).config.alloc_rto, sim::microseconds(102'300));
}

}  // namespace
}  // namespace rmc::rmcast
