// Tests for the collective operations built on the reliable multicast API:
// broadcast, barrier, scatter, and the decentralised all-gather.
#include <gtest/gtest.h>

#include "collectives/allgather.h"
#include "collectives/allreduce.h"
#include "collectives/broadcast.h"
#include "collectives/scatter.h"
#include "protocol_test_util.h"

namespace rmc::collectives {
namespace {

using test::config_for;
using test::pattern;
using test::ProtocolHarness;

TEST(Broadcast, DeliversToEveryMember) {
  ProtocolHarness h(5, config_for(rmcast::ProtocolKind::kNakPolling));
  Broadcaster bcast(h.sender());
  Buffer data = pattern(50'000);
  bool done = false;
  bcast.broadcast(BytesView(data.data(), data.size()), [&] { done = true; });
  h.run_until_done(done, sim::seconds(30.0));
  ASSERT_TRUE(done);
  h.expect_all_delivered({data});
  EXPECT_EQ(bcast.broadcasts_completed(), 1u);
}

TEST(Broadcast, BarrierCompletesOnceAllMembersRespond) {
  ProtocolHarness h(5, config_for(rmcast::ProtocolKind::kAck));
  Broadcaster bcast(h.sender());
  bool done = false;
  bcast.barrier([&] { done = true; });
  h.run_until_done(done, sim::seconds(30.0));
  ASSERT_TRUE(done);
  // Every member answered the (empty) broadcast's allocation handshake.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(h.receiver(i).stats().alloc_responses_sent, 1u);
  }
}

TEST(Scatter, PackExtractRoundTrip) {
  std::vector<Buffer> chunks = {pattern(10), pattern(500), Buffer{}, pattern(3)};
  Buffer packed = scatter_pack(chunks);
  for (std::size_t rank = 0; rank < chunks.size(); ++rank) {
    auto got = scatter_extract(BytesView(packed.data(), packed.size()), rank);
    ASSERT_TRUE(got.has_value()) << rank;
    EXPECT_EQ(*got, chunks[rank]) << rank;
  }
  EXPECT_FALSE(
      scatter_extract(BytesView(packed.data(), packed.size()), chunks.size()).has_value());
  Buffer junk{1, 2};
  EXPECT_FALSE(scatter_extract(BytesView(junk.data(), junk.size()), 0).has_value());
}

TEST(Scatter, EndToEndEachReceiverGetsItsSlice) {
  const std::size_t n = 4;
  ProtocolHarness h(n, config_for(rmcast::ProtocolKind::kRing));
  std::vector<Buffer> chunks;
  for (std::size_t i = 0; i < n; ++i) chunks.push_back(pattern(1000 * (i + 1)));

  Scatterer scatterer(h.sender());
  std::vector<Buffer> got(n);
  for (std::size_t i = 0; i < n; ++i) {
    h.receiver(i).set_message_handler(
        [&, i](const Buffer& message, std::uint32_t) {
          auto slice = scatter_extract(BytesView(message.data(), message.size()), i);
          ASSERT_TRUE(slice.has_value());
          got[i] = *slice;
        });
  }
  bool done = false;
  scatterer.scatter(chunks, [&] { done = true; });
  h.run_until_done(done, sim::seconds(30.0));
  ASSERT_TRUE(done);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], chunks[i]) << "rank " << i;
}

// All-gather needs one multicast group per rank, all on one cluster:
// rank g's Session sends from host g to every other rank.
class AllgatherFixture : public ::testing::Test {
 protected:
  static constexpr std::size_t kRanks = 3;

  AllgatherFixture() : cluster_(make_params()) {
    for (std::size_t g = 0; g < kRanks; ++g) {
      rmcast::SessionPlacement placement;
      placement.sender_host = g;
      for (std::size_t r = 0; r < kRanks; ++r) {
        if (r != g) placement.receiver_hosts.push_back(r);
      }
      placement.group = {net::Ipv4Addr(239, 0, 0, static_cast<std::uint8_t>(g + 1)),
                         static_cast<std::uint16_t>(5000 + g)};
      placement.sender_control_port = static_cast<std::uint16_t>(6000 + g);
      placement.receiver_control_port = static_cast<std::uint16_t>(7000 + g);
      sessions_.push_back(std::make_unique<rmcast::Session>(
          cluster_, placement, config_for(rmcast::ProtocolKind::kAck)));
    }
    for (std::size_t r = 0; r < kRanks; ++r) {
      // Rank r is node r of lower ranks' groups and node r - 1 of higher ones.
      std::vector<rmcast::MulticastReceiver*> receivers(kRanks, nullptr);
      for (std::size_t g = 0; g < kRanks; ++g) {
        if (g != r) receivers[g] = &sessions_[g]->receiver(r < g ? r : r - 1);
      }
      nodes_.push_back(
          std::make_unique<AllgatherNode>(r, sessions_[r]->sender(), receivers));
    }
  }

  static inet::ClusterParams make_params() {
    inet::ClusterParams p;
    p.n_hosts = kRanks;
    p.wiring = inet::Wiring::kSingleSwitch;
    return p;
  }

  inet::Cluster cluster_;
  std::vector<std::unique_ptr<rmcast::Session>> sessions_;
  std::vector<std::unique_ptr<AllgatherNode>> nodes_;
};

TEST(Allreduce, PackUnpackRoundTrip) {
  std::vector<double> values = {0.0, -1.5, 3.25e300, 1e-300,
                                std::numeric_limits<double>::infinity()};
  Buffer packed = pack_doubles(values);
  EXPECT_EQ(packed.size(), values.size() * 8);
  EXPECT_EQ(unpack_doubles(BytesView(packed.data(), packed.size())), values);
  Buffer truncated(packed.begin(), packed.begin() + 7);
  EXPECT_TRUE(unpack_doubles(BytesView(truncated.data(), truncated.size())).empty());
}

TEST(Allreduce, ReduceVectorOps) {
  std::vector<std::vector<double>> inputs = {{1, 5, -2}, {4, 2, -8}, {0, 7, 3}};
  EXPECT_EQ(reduce_vectors(inputs, ReduceOp::kSum), (std::vector<double>{5, 14, -7}));
  EXPECT_EQ(reduce_vectors(inputs, ReduceOp::kMin), (std::vector<double>{0, 2, -8}));
  EXPECT_EQ(reduce_vectors(inputs, ReduceOp::kMax), (std::vector<double>{4, 7, 3}));
  // Shape mismatch is an application bug, surfaced as empty.
  inputs.push_back({1});
  EXPECT_TRUE(reduce_vectors(inputs, ReduceOp::kSum).empty());
  EXPECT_TRUE(reduce_vectors({}, ReduceOp::kSum).empty());
}

TEST_F(AllgatherFixture, AllreduceSumsAcrossRanks) {
  std::vector<std::vector<double>> contributions = {
      {1.0, 2.0, 3.0}, {10.0, 20.0, 30.0}, {100.0, 200.0, 300.0}};
  std::vector<AllreduceNode> reducers;
  reducers.reserve(kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) reducers.emplace_back(*nodes_[r]);

  std::vector<std::vector<double>> results(kRanks);
  std::size_t completions = 0;
  for (std::size_t r = 0; r < kRanks; ++r) {
    reducers[r].run(contributions[r], ReduceOp::kSum,
                    [&, r](const std::vector<double>& result) {
                      results[r] = result;
                      ++completions;
                    });
  }
  while (completions < kRanks && cluster_.simulator().now() < sim::seconds(30.0)) {
    if (!cluster_.simulator().step()) break;
  }
  ASSERT_EQ(completions, kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) {
    EXPECT_EQ(results[r], (std::vector<double>{111.0, 222.0, 333.0})) << "rank " << r;
  }
}

TEST_F(AllgatherFixture, EveryRankGathersAllChunks) {
  std::vector<Buffer> chunks = {pattern(1000), pattern(2500), pattern(700)};
  std::vector<std::vector<Buffer>> gathered(kRanks);
  std::size_t completions = 0;
  for (std::size_t r = 0; r < kRanks; ++r) {
    nodes_[r]->run(BytesView(chunks[r].data(), chunks[r].size()),
                   [&, r](const std::vector<Buffer>& all) {
                     gathered[r] = all;
                     ++completions;
                   });
  }
  while (completions < kRanks && cluster_.simulator().now() < sim::seconds(30.0)) {
    if (!cluster_.simulator().step()) break;
  }
  ASSERT_EQ(completions, kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) {
    ASSERT_EQ(gathered[r].size(), kRanks);
    for (std::size_t g = 0; g < kRanks; ++g) {
      EXPECT_EQ(gathered[r][g], chunks[g]) << "rank " << r << " chunk " << g;
    }
    EXPECT_TRUE(nodes_[r]->done());
  }
}

}  // namespace
}  // namespace rmc::collectives
