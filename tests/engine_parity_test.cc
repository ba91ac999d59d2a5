// Engine-parity regression test.
//
// The engine layer extracted the per-protocol policies out of the
// sender/receiver monoliths; this suite pins the refactor to goldens
// captured from the pre-refactor build on the tab02_control_load
// scenario (500KB to 30 receivers, the paper's Table 2 configurations).
// The simulation is deterministic for a fixed seed, so every control
// message count, delivered byte and the elapsed clock itself must come
// out identical — any drift means an engine changed protocol behavior,
// not just code structure.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/experiment.h"

namespace rmc::rmcast {
namespace {

struct Golden {
  const char* label;
  ProtocolKind kind;
  std::uint64_t data_packets_sent;
  std::uint64_t retransmissions;
  std::uint64_t acks_received;
  std::uint64_t naks_received;
  std::uint64_t alloc_requests_sent;
  std::uint64_t alloc_responses_received;
  std::uint64_t total_acks_sent;
  std::uint64_t total_naks_sent;
  std::uint64_t delivered_bytes;
  double seconds;
};

// The tab02_control_load configurations: Table 2's per-protocol tunings,
// plus the hybrid-FEC kinds at their recommended group shapes.
ProtocolConfig tab02_config(ProtocolKind kind) {
  ProtocolConfig c;
  c.kind = kind;
  c.packet_size = 8000;
  c.window_size = kind == ProtocolKind::kRing ? 40 : 20;
  if (kind == ProtocolKind::kNakPolling) c.poll_interval = 12;
  if (kind == ProtocolKind::kFlatTree) c.tree_height = 6;
  if (is_fec_protocol(kind)) {
    c.fec.k = kind == ProtocolKind::kEcXor ? 16 : 32;
    c.fec.m = kind == ProtocolKind::kEcXor ? 1 : 8;
    c.window_size = c.fec.group_size() + 4;
    c.selective_repeat = true;
    c.receiver_driven_timeouts = true;
  }
  return c;
}

void expect_matches_golden(const Golden& g, std::uint64_t seed,
                           double frame_error_rate) {
  harness::MulticastRunSpec spec;
  spec.n_receivers = 30;
  spec.message_bytes = 500'000;
  spec.protocol = tab02_config(g.kind);
  spec.seed = seed;
  spec.cluster.link.frame_error_rate = frame_error_rate;
  harness::RunResult r = harness::run_multicast(spec);
  ASSERT_TRUE(r.completed) << g.label << ": " << r.error;

  EXPECT_EQ(r.sender.data_packets_sent, g.data_packets_sent) << g.label;
  EXPECT_EQ(r.sender.retransmissions, g.retransmissions) << g.label;
  EXPECT_EQ(r.sender.acks_received, g.acks_received) << g.label;
  EXPECT_EQ(r.sender.naks_received, g.naks_received) << g.label;
  EXPECT_EQ(r.sender.alloc_requests_sent, g.alloc_requests_sent) << g.label;
  EXPECT_EQ(r.sender.alloc_responses_received, g.alloc_responses_received) << g.label;
  EXPECT_EQ(r.total_acks_sent(), g.total_acks_sent) << g.label;
  EXPECT_EQ(r.total_naks_sent(), g.total_naks_sent) << g.label;
  std::uint64_t delivered_bytes = 0;
  for (const auto& rs : r.receivers) {
    delivered_bytes += rs.messages_delivered * spec.message_bytes;
  }
  EXPECT_EQ(delivered_bytes, g.delivered_bytes) << g.label;
  EXPECT_NEAR(r.seconds, g.seconds, 1e-9) << g.label;
}

// Captured from the pre-refactor build (commit 3d6f54d), seed=1, no loss.
const std::vector<Golden> kErrorFreeGoldens = {
    {"kAck", ProtocolKind::kAck, 63u, 0u, 1890u, 0u, 1u, 30u, 1890u, 0u, 15000000u,
     0.140451392},
    {"kNakPolling", ProtocolKind::kNakPolling, 63u, 0u, 180u, 0u, 1u, 30u, 180u, 0u,
     15000000u, 0.048207808},
    {"kRing", ProtocolKind::kRing, 63u, 0u, 92u, 0u, 1u, 30u, 92u, 0u, 15000000u,
     0.046164352},
    {"kFlatTree", ProtocolKind::kFlatTree, 63u, 0u, 315u, 0u, 1u, 5u, 1890u, 0u,
     15000000u, 0.055469776},
    {"kBinaryTree", ProtocolKind::kBinaryTree, 63u, 0u, 63u, 0u, 1u, 1u, 1890u, 0u,
     15000000u, 0.045608824},
};

// Captured from the pre-refactor build, seed=7, frame_error_rate=0.001 —
// exercises the NAK, retransmission, suppression and polling paths the
// error-free run never reaches.
const std::vector<Golden> kLossyGoldens = {
    {"kAck", ProtocolKind::kAck, 63u, 74u, 3727u, 200u, 1u, 30u, 3745u, 201u, 15000000u,
     0.362703504},
    {"kNakPolling", ProtocolKind::kNakPolling, 63u, 67u, 335u, 62u, 1u, 30u, 337u, 62u,
     15000000u, 0.292309776},
    {"kRing", ProtocolKind::kRing, 63u, 136u, 3589u, 238u, 1u, 30u, 3598u, 238u,
     15000000u, 0.265690000},
    {"kFlatTree", ProtocolKind::kFlatTree, 63u, 175u, 1075u, 319u, 1u, 5u, 6556u, 320u,
     15000000u, 0.267267088},
    {"kBinaryTree", ProtocolKind::kBinaryTree, 63u, 423u, 5956u, 324u, 1u, 1u, 31877u,
     324u, 15000000u, 0.624281624},
};

// The hybrid-FEC kinds have no pre-refactor build to compare against;
// their goldens were captured from the first EC-capable build (this
// commit) and pin the parity/decode/GROUP_NAK machinery for every
// refactor after it. Same scenario: 500KB to 30 receivers.
struct EcGolden {
  const char* label;
  ProtocolKind kind;
  std::uint64_t data_packets_sent;
  std::uint64_t retransmissions;
  std::uint64_t acks_received;
  std::uint64_t total_acks_sent;
  std::uint64_t parity_packets_sent;
  std::uint64_t parity_packets_received;
  std::uint64_t fec_decodes;
  std::uint64_t fec_blocks_recovered;
  std::uint64_t group_naks_sent;
  std::uint64_t group_naks_received;
  std::uint64_t delivered_bytes;
  double seconds;
};

void expect_matches_ec_golden(const EcGolden& g, std::uint64_t seed,
                              double frame_error_rate) {
  harness::MulticastRunSpec spec;
  spec.n_receivers = 30;
  spec.message_bytes = 500'000;
  spec.protocol = tab02_config(g.kind);
  spec.seed = seed;
  spec.cluster.link.frame_error_rate = frame_error_rate;
  harness::RunResult r = harness::run_multicast(spec);
  ASSERT_TRUE(r.completed) << g.label << ": " << r.error;

  EXPECT_EQ(r.sender.data_packets_sent, g.data_packets_sent) << g.label;
  EXPECT_EQ(r.sender.retransmissions, g.retransmissions) << g.label;
  EXPECT_EQ(r.sender.acks_received, g.acks_received) << g.label;
  EXPECT_EQ(r.total_acks_sent(), g.total_acks_sent) << g.label;
  EXPECT_EQ(r.sender.parity_packets_sent, g.parity_packets_sent) << g.label;
  EXPECT_EQ(r.sender.group_naks_received, g.group_naks_received) << g.label;
  std::uint64_t parity_rx = 0, decodes = 0, recovered = 0, gnaks = 0,
                delivered_bytes = 0;
  for (const auto& rs : r.receivers) {
    parity_rx += rs.parity_packets_received;
    decodes += rs.fec_decodes;
    recovered += rs.fec_blocks_recovered;
    gnaks += rs.group_naks_sent;
    delivered_bytes += rs.messages_delivered * spec.message_bytes;
  }
  EXPECT_EQ(parity_rx, g.parity_packets_received) << g.label;
  EXPECT_EQ(decodes, g.fec_decodes) << g.label;
  EXPECT_EQ(recovered, g.fec_blocks_recovered) << g.label;
  EXPECT_EQ(gnaks, g.group_naks_sent) << g.label;
  EXPECT_EQ(delivered_bytes, g.delivered_bytes) << g.label;
  EXPECT_NEAR(r.seconds, g.seconds, 1e-9) << g.label;
}

// Error-free, seed=1: parity flows (4 = 4 groups x m=1; 16 = 2 x m=8)
// but nothing decodes and no GROUP_NAK fires.
const std::vector<EcGolden> kEcErrorFreeGoldens = {
    {"kEcXor", ProtocolKind::kEcXor, 63u, 0u, 120u, 120u, 4u, 120u, 0u, 0u, 0u,
     0u, 15000000u, 0.048172672},
    {"kEcRs", ProtocolKind::kEcRs, 63u, 0u, 60u, 60u, 16u, 240u, 0u, 0u, 0u, 0u,
     15000000u, 0.056367248},
};

// seed=7, frame_error_rate=0.001: most losses decode locally; one window
// stall mid-transfer exercises every receiver's inactivity-forced
// GROUP_NAK exactly once, and the sender's suppression collapses the 30
// requests into single-digit retransmissions.
const std::vector<EcGolden> kEcLossyGoldens = {
    {"kEcXor", ProtocolKind::kEcXor, 63u, 2u, 176u, 177u, 4u, 119u, 10u, 10u,
     30u, 30u, 15000000u, 0.084992304},
    {"kEcRs", ProtocolKind::kEcRs, 63u, 1u, 88u, 89u, 16u, 283u, 9u, 9u, 30u,
     30u, 15000000u, 0.096622224},
};

TEST(EngineParity, ErrorFreeControlLoadMatchesPreRefactorGoldens) {
  for (const Golden& g : kErrorFreeGoldens) {
    expect_matches_golden(g, /*seed=*/1, /*frame_error_rate=*/0.0);
  }
}

TEST(EngineParity, LossyControlLoadMatchesPreRefactorGoldens) {
  for (const Golden& g : kLossyGoldens) {
    expect_matches_golden(g, /*seed=*/7, /*frame_error_rate=*/0.001);
  }
}

TEST(EngineParity, ErrorFreeEcControlLoadMatchesCapturedGoldens) {
  for (const EcGolden& g : kEcErrorFreeGoldens) {
    expect_matches_ec_golden(g, /*seed=*/1, /*frame_error_rate=*/0.0);
  }
}

TEST(EngineParity, LossyEcControlLoadMatchesCapturedGoldens) {
  for (const EcGolden& g : kEcLossyGoldens) {
    expect_matches_ec_golden(g, /*seed=*/7, /*frame_error_rate=*/0.001);
  }
}

}  // namespace
}  // namespace rmc::rmcast
