// Cross-run determinism.
//
// The repo's experimental claims all rest on one property: a run is a pure
// function of its configuration and seed. This suite pins that property
// end-to-end, for every protocol the paper studies: the same seed, run
// twice, yields an identical metrics snapshot (full JSON), an identical
// causal trace (timestamps included) and identical stats and event counts
// — error-free, under loss, under injected faults (a crash plus a link
// flap), and for a multi-tenant mix with churn. The event core's own
// ordering contract is checked against a reference scheduler in
// sim_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "harness/experiment.h"
#include "harness/tenant.h"
#include "sim/fault.h"

namespace rmc::rmcast {
namespace {

constexpr ProtocolKind kAllKinds[] = {
    ProtocolKind::kAck,      ProtocolKind::kNakPolling, ProtocolKind::kRing,
    ProtocolKind::kFlatTree, ProtocolKind::kBinaryTree, ProtocolKind::kEcXor,
    ProtocolKind::kEcRs};

// Table 2 tunings, shrunk to a 12-receiver 120KB transfer so the full
// 7-protocol × repeated-run matrix stays fast under sanitizers.
// The EC kinds ride the same matrix: their parity emission, deferred
// decode and GROUP_NAK fallback must be as replayable as the ARQ paths.
ProtocolConfig small_config(ProtocolKind kind) {
  ProtocolConfig c;
  c.kind = kind;
  c.packet_size = 8000;
  c.window_size = kind == ProtocolKind::kRing ? 40 : 20;
  if (kind == ProtocolKind::kNakPolling) c.poll_interval = 12;
  if (kind == ProtocolKind::kFlatTree) c.tree_height = 4;
  if (is_fec_protocol(kind)) {
    c.fec.k = kind == ProtocolKind::kEcXor ? 8 : 12;
    c.fec.m = kind == ProtocolKind::kEcXor ? 1 : 3;
    c.window_size = c.fec.group_size() + 4;
    c.selective_repeat = true;
    c.receiver_driven_timeouts = true;
  }
  return c;
}

struct Capture {
  harness::RunResult result;
  std::string metrics_json;
  trace::Tracer tracer;  // full causal trace, tags and timelines included
};

Capture capture_run(ProtocolKind kind, std::uint64_t seed, double frame_error_rate,
                    const sim::FaultPlan& faults = {}) {
  metrics::Registry registry;
  Capture cap;
  harness::MulticastRunSpec spec;
  spec.n_receivers = 12;
  spec.message_bytes = 120'000;
  spec.protocol = small_config(kind);
  spec.seed = seed;
  spec.cluster.link.frame_error_rate = frame_error_rate;
  spec.faults = faults;
  if (!faults.empty()) {
    // Fault runs stall on the faulted receiver unless eviction is on.
    spec.protocol.max_retransmit_rounds = 5;
  }
  spec.metrics = &registry;
  spec.tracer = &cap.tracer;
  cap.result = harness::run_multicast(spec);
  cap.metrics_json = registry.to_json();
  return cap;
}

void expect_identical(const Capture& x, const Capture& y, const char* label) {
  ASSERT_TRUE(x.result.completed) << label << ": " << x.result.error;
  ASSERT_TRUE(y.result.completed) << label << ": " << y.result.error;
  // The clock itself: bit-identical, not approximately equal.
  EXPECT_EQ(x.result.seconds, y.result.seconds) << label;
  EXPECT_EQ(x.result.events_executed, y.result.events_executed) << label;
  EXPECT_EQ(x.result.sender.data_packets_sent, y.result.sender.data_packets_sent)
      << label;
  EXPECT_EQ(x.result.sender.retransmissions, y.result.sender.retransmissions)
      << label;
  EXPECT_EQ(x.result.sender.acks_received, y.result.sender.acks_received) << label;
  EXPECT_EQ(x.result.sender.naks_received, y.result.sender.naks_received) << label;
  EXPECT_EQ(x.result.total_acks_sent(), y.result.total_acks_sent()) << label;
  EXPECT_EQ(x.result.total_naks_sent(), y.result.total_naks_sent()) << label;
  EXPECT_EQ(x.result.rcvbuf_drops, y.result.rcvbuf_drops) << label;
  EXPECT_EQ(x.result.link_drops, y.result.link_drops) << label;
  EXPECT_EQ(x.result.fault_drops, y.result.fault_drops) << label;
  // The full metrics snapshot — every counter, gauge and histogram the
  // observability layer publishes, in one string compare.
  EXPECT_EQ(x.metrics_json, y.metrics_json) << label;
  // The causal trace — every hook in the protocol, net and timeline tiers,
  // with integer nanosecond timestamps — must also match bit-for-bit.
  ASSERT_EQ(x.tracer.events().size(), y.tracer.events().size()) << label;
  EXPECT_TRUE(x.tracer.same_as(y.tracer)) << label;
}

TEST(Determinism, SameSeedReproducesErrorFreeRuns) {
  for (ProtocolKind kind : kAllKinds) {
    Capture a = capture_run(kind, /*seed=*/3, /*fer=*/0.0);
    Capture b = capture_run(kind, /*seed=*/3, /*fer=*/0.0);
    expect_identical(a, b, protocol_name(kind));
    EXPECT_FALSE(a.tracer.events().empty()) << protocol_name(kind);
  }
}

TEST(Determinism, SameSeedReproducesLossyRuns) {
  for (ProtocolKind kind : kAllKinds) {
    Capture a = capture_run(kind, /*seed=*/11, /*fer=*/0.002);
    Capture b = capture_run(kind, /*seed=*/11, /*fer=*/0.002);
    expect_identical(a, b, protocol_name(kind));
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity check that the comparison has teeth: with loss enabled, two
  // different seeds must NOT produce the same trace timestamps.
  Capture a = capture_run(ProtocolKind::kAck, /*seed=*/1, /*fer=*/0.01);
  Capture b = capture_run(ProtocolKind::kAck, /*seed=*/2, /*fer=*/0.01);
  ASSERT_TRUE(a.result.completed && b.result.completed);
  EXPECT_FALSE(a.tracer.same_as(b.tracer));
}

// The multi-tenant tier rides the same contract: a TenantMix — two
// tenants multiplexed over one shared switch, with churn — is a pure
// function of its seed.
struct MixCapture {
  harness::TenantMixResult result;
  std::string report_json;
  std::string metrics_json;  // the folded (sweep-style) registry
  trace::Tracer tracer;      // the shared fabric's tenant-tagged trace
};

MixCapture capture_mix(std::uint64_t seed) {
  MixCapture cap;
  metrics::Registry registry;
  harness::TenantMixSpec spec;
  spec.n_tenants = 2;
  spec.receivers_per_tenant = 3;
  spec.message_bytes = 60'000;
  spec.kinds = {ProtocolKind::kAck, ProtocolKind::kRing};
  spec.placement = harness::TenantPlacementPolicy::kColliding;
  spec.n_hosts = 8;  // both tenants behind the one default switch
  spec.churn.late_join_fraction = 0.3;
  spec.churn.leave_fraction = 0.3;
  spec.seed = seed;
  spec.metrics = &registry;
  spec.tracer = &cap.tracer;
  cap.result = harness::run_tenant_mix(spec);
  cap.report_json = cap.result.to_json();
  cap.metrics_json = registry.to_json();
  return cap;
}

void expect_mix_identical(const MixCapture& x, const MixCapture& y) {
  ASSERT_TRUE(x.result.completed) << x.result.error;
  ASSERT_TRUE(y.result.completed) << y.result.error;
  EXPECT_EQ(x.result.events_executed, y.result.events_executed);
  EXPECT_EQ(x.report_json, y.report_json);
  EXPECT_EQ(x.metrics_json, y.metrics_json);
  ASSERT_EQ(x.result.tenants.size(), y.result.tenants.size());
  for (std::size_t t = 0; t < x.result.tenants.size(); ++t) {
    EXPECT_EQ(x.result.tenants[t].metrics_json, y.result.tenants[t].metrics_json) << t;
  }
  ASSERT_EQ(x.tracer.events().size(), y.tracer.events().size());
  EXPECT_TRUE(x.tracer.same_as(y.tracer));
}

TEST(Determinism, SameSeedReproducesTwoTenantSharedSwitchMix) {
  MixCapture a = capture_mix(/*seed=*/17);
  MixCapture b = capture_mix(/*seed=*/17);
  expect_mix_identical(a, b);
  EXPECT_FALSE(a.tracer.events().empty());
}

TEST(Determinism, SameSeedReproducesFaultedRuns) {
  // A crashed receiver plus a flapping link drives the cancel/re-arm and
  // eviction paths — the timers the pooled wheel exists to make cheap.
  sim::FaultPlan faults;
  faults.crash(2, sim::milliseconds(5))
      .flap_link(7, sim::milliseconds(2), sim::milliseconds(40),
                 sim::milliseconds(10));
  for (ProtocolKind kind : kAllKinds) {
    Capture a = capture_run(kind, /*seed=*/21, /*fer=*/0.001, faults);
    Capture b = capture_run(kind, /*seed=*/21, /*fer=*/0.001, faults);
    ASSERT_EQ(a.result.completed, b.result.completed) << protocol_name(kind);
    if (a.result.completed) {
      expect_identical(a, b, protocol_name(kind));
    } else {
      // Even a timed-out run must time out identically.
      EXPECT_EQ(a.result.seconds, b.result.seconds) << protocol_name(kind);
      EXPECT_EQ(a.result.events_executed, b.result.events_executed)
          << protocol_name(kind);
      EXPECT_EQ(a.metrics_json, b.metrics_json) << protocol_name(kind);
      EXPECT_TRUE(a.tracer.same_as(b.tracer)) << protocol_name(kind);
    }
    EXPECT_GT(a.result.fault_drops, 0u) << protocol_name(kind);
  }
}

}  // namespace
}  // namespace rmc::rmcast
