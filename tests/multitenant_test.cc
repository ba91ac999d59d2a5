// The multi-tenant tier's contract: determinism of the whole TenantMix
// fold at any sweep parallelism, isolation (one tenant's dead receivers
// cannot stall another tenant's transfer), fairness sanity on symmetric
// tenants, the GroupDirectory collision guard, and the contention
// matrix's shape.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "harness/sweep.h"
#include "harness/tenant.h"
#include "rmcast/engine/registry.h"
#include "rmcast/session.h"

namespace rmc::harness {
namespace {

// The reference mix for the determinism rows: small, churn-enabled,
// cross-protocol, colliding placement — every moving part engaged.
TenantMixSpec small_mix(std::uint64_t seed) {
  TenantMixSpec spec;
  spec.n_tenants = 6;
  spec.receivers_per_tenant = 3;
  spec.message_bytes = 60'000;
  for (const rmcast::EngineEntry& entry : rmcast::ProtocolRegistry::instance().entries()) {
    spec.kinds.push_back(entry.kind);
  }
  spec.placement = TenantPlacementPolicy::kColliding;
  spec.n_hosts = 12;
  spec.arrival_rate_hz = 800.0;
  spec.churn.late_join_fraction = 0.2;
  spec.churn.leave_fraction = 0.2;
  spec.seed = seed;
  return spec;
}

// Runs `n_cells` mixes (seeds seed, seed+1, ...) through a SweepRunner at
// the given parallelism, folding every tenant registry into `sink` in
// ticket order. Returns each cell's deterministic report.
std::vector<std::string> run_cells_at_jobs(std::size_t jobs, std::size_t n_cells,
                                           std::uint64_t seed, metrics::Registry* sink,
                                           std::vector<std::string>* tenant_metrics) {
  std::vector<TenantMixResult> results(n_cells);
  {
    SweepRunner::Options options;
    options.jobs = jobs;
    options.metrics = sink;
    SweepRunner runner(options);
    std::vector<SweepRunner::Ticket> tickets;
    for (std::size_t i = 0; i < n_cells; ++i) {
      TenantMixSpec spec = small_mix(seed + i);
      TenantMixResult* slot = &results[i];
      tickets.push_back(runner.submit_task([spec, slot](metrics::Registry* registry) {
        TenantMixSpec s = spec;
        s.metrics = registry;
        *slot = run_tenant_mix(s);
        RunResult out;
        out.completed = slot->completed;
        out.error = slot->error;
        out.seconds = slot->makespan_seconds;
        out.events_executed = slot->events_executed;
        return out;
      }));
    }
    for (SweepRunner::Ticket t : tickets) {
      EXPECT_TRUE(runner.result(t).completed) << runner.result(t).error;
    }
  }  // runner drains + folds before the sink is read
  std::vector<std::string> reports;
  for (const TenantMixResult& r : results) {
    reports.push_back(r.to_json());
    if (tenant_metrics != nullptr) {
      for (const TenantReport& t : r.tenants) tenant_metrics->push_back(t.metrics_json);
    }
  }
  return reports;
}

TEST(MultiTenantDeterminism, FoldIsByteIdenticalAcrossJobs) {
  metrics::Registry sink1, sink4;
  std::vector<std::string> tenants1, tenants4;
  const std::vector<std::string> reports1 =
      run_cells_at_jobs(1, 3, /*seed=*/7, &sink1, &tenants1);
  const std::vector<std::string> reports4 =
      run_cells_at_jobs(4, 3, /*seed=*/7, &sink4, &tenants4);
  // Cell reports, every tenant's private metrics snapshot, and the folded
  // sink: all byte-identical regardless of worker count.
  EXPECT_EQ(reports1, reports4);
  EXPECT_EQ(tenants1, tenants4);
  EXPECT_EQ(sink1.to_json(), sink4.to_json());
  EXPECT_FALSE(tenants1.empty());
}

TEST(MultiTenantDeterminism, SameSeedSameReportAndTrace) {
  trace::Tracer tracer_a, tracer_b;
  TenantMixSpec spec_a = small_mix(3);
  spec_a.tracer = &tracer_a;
  TenantMixSpec spec_b = small_mix(3);
  spec_b.tracer = &tracer_b;
  const TenantMixResult a = run_tenant_mix(spec_a);
  const TenantMixResult b = run_tenant_mix(spec_b);
  ASSERT_TRUE(a.completed) << a.error;
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_TRUE(tracer_a.same_as(tracer_b));
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].metrics_json, b.tenants[t].metrics_json) << t;
  }
}

// Isolation: tenants on disjoint hosts only meet in the switch. Killing
// every receiver host of tenant 0 must leave tenants 1 and 2 delivering
// normally while tenant 0's sender evicts its way to completion.
TEST(MultiTenantIsolation, CrashedTenantCannotStallOthers) {
  constexpr std::size_t kTenants = 3;
  constexpr std::size_t kReceivers = 4;
  inet::ClusterParams params;
  params.n_hosts = kTenants * (kReceivers + 1);
  params.seed = 5;
  inet::Cluster cluster(params);

  rmcast::ProtocolConfig config;
  const rmcast::EngineEntry& entry =
      rmcast::ProtocolRegistry::instance().entry(rmcast::ProtocolKind::kAck);
  entry.traits.apply_recommended_tuning(config, 100'000, kReceivers);
  config.max_retransmit_rounds = 3;

  rmcast::GroupDirectory directory;
  std::vector<std::unique_ptr<rmcast::Session>> sessions;
  for (std::size_t t = 0; t < kTenants; ++t) {
    rmcast::SessionPlacement placement;
    placement.sender_host = t * (kReceivers + 1);
    for (std::size_t r = 0; r < kReceivers; ++r) {
      placement.receiver_hosts.push_back(placement.sender_host + 1 + r);
    }
    placement.group = {net::Ipv4Addr(0xEF00'0200u + static_cast<std::uint32_t>(t)),
                       static_cast<std::uint16_t>(21'000 + 3 * t)};
    placement.sender_control_port = static_cast<std::uint16_t>(21'001 + 3 * t);
    placement.receiver_control_port = static_cast<std::uint16_t>(21'002 + 3 * t);
    placement.session_base = static_cast<std::uint32_t>(t + 1) << 16;
    sessions.push_back(std::make_unique<rmcast::Session>(cluster, placement, config,
                                                         nullptr, &directory));
  }

  const Buffer message(100'000, 0x5A);
  std::vector<rmcast::SendOutcome> outcomes(kTenants);
  std::size_t n_done = 0;
  sim::Simulator& simulator = cluster.simulator();
  for (std::size_t t = 0; t < kTenants; ++t) {
    rmcast::Session& session = *sessions[t];
    rmcast::SendOutcome* slot = &outcomes[t];
    simulator.schedule_at(sim::milliseconds(1), [&session, &message, slot, &n_done] {
      session.send(BytesView(message.data(), message.size()),
                   [slot, &n_done](const rmcast::SendOutcome& outcome) {
                     *slot = outcome;
                     ++n_done;
                   });
    });
  }
  // All four of tenant 0's receiver hosts fail-stop mid-transfer.
  simulator.schedule_at(sim::milliseconds(3), [&cluster] {
    for (std::size_t r = 0; r < kReceivers; ++r) cluster.set_host_down(1 + r, true);
  });

  while (n_done < kTenants && simulator.now() < sim::seconds(120.0)) {
    if (!simulator.step()) break;
  }
  ASSERT_EQ(n_done, kTenants) << "a tenant never completed";
  EXPECT_EQ(outcomes[0].n_evicted(), kReceivers);
  EXPECT_TRUE(outcomes[1].all_delivered());
  EXPECT_TRUE(outcomes[2].all_delivered());
  // The victims' wreckage must not have slowed the survivors into their
  // own eviction timers: survivors finish in normal transfer time, not
  // eviction time.
  EXPECT_LT(outcomes[1].elapsed, sim::seconds(1.0));
  EXPECT_LT(outcomes[2].elapsed, sim::seconds(1.0));
}

TEST(MultiTenantFairness, SymmetricTenantsShareTheFabricFairly) {
  TenantMixSpec spec;
  spec.n_tenants = 6;
  spec.receivers_per_tenant = 3;
  spec.message_bytes = 100'000;
  spec.kinds = {rmcast::ProtocolKind::kAck};  // identical tenants
  spec.placement = TenantPlacementPolicy::kDisjoint;
  spec.arrival_rate_hz = 500.0;
  spec.seed = 11;
  const TenantMixResult result = run_tenant_mix(spec);
  ASSERT_TRUE(result.completed) << result.error;
  for (const TenantReport& t : result.tenants) {
    EXPECT_TRUE(t.all_delivered) << t.tenant;
    EXPECT_TRUE(t.payload_ok) << t.tenant;
  }
  EXPECT_GE(result.jain_fairness, 0.95);
}

TEST(MultiTenantContention, MatrixHasMixShapeAndNonNegativeEntries) {
  trace::Tracer tracer;
  TenantMixSpec spec = small_mix(9);
  spec.tracer = &tracer;
  const TenantMixResult result = run_tenant_mix(spec);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_EQ(result.contention.size(), spec.n_tenants);
  for (const std::vector<double>& row : result.contention) {
    ASSERT_EQ(row.size(), spec.n_tenants);
    for (double cell : row) EXPECT_GE(cell, 0.0);
  }
  // Without a tracer the matrix stays empty.
  const TenantMixResult untraced = run_tenant_mix(small_mix(9));
  EXPECT_TRUE(untraced.contention.empty());
}

TEST(MultiTenantSizing, DisjointPlacementRejectsUndersizedFabric) {
  TenantMixSpec spec;
  spec.n_tenants = 4;
  spec.receivers_per_tenant = 3;
  spec.placement = TenantPlacementPolicy::kDisjoint;
  spec.n_hosts = 8;  // needs 16
  const TenantMixResult result = run_tenant_mix(spec);
  EXPECT_FALSE(result.completed);
  EXPECT_NE(result.error.find("disjoint placement"), std::string::npos) << result.error;
}

// Regression for the cross-group validate() extension: two concurrently
// registered groups may not share a multicast data endpoint (every
// receiver binds the group port and joins the group address, so the
// collision silently merges two tenants' DATA streams).
TEST(GroupDirectory, RejectsDataEndpointCollisions) {
  auto membership = [](std::uint32_t group_addr, std::uint16_t group_port,
                       std::uint16_t control_base) {
    rmcast::GroupMembership m;
    m.group = {net::Ipv4Addr(group_addr), group_port};
    m.sender_control = {net::Ipv4Addr(0x0A00'0001u), control_base};
    m.receiver_control = {{net::Ipv4Addr(0x0A00'0002u), control_base},
                          {net::Ipv4Addr(0x0A00'0003u), control_base}};
    return rmcast::SharedMembership(m);
  };

  rmcast::GroupDirectory directory;
  EXPECT_EQ(directory.add(1, membership(0xEF00'0001u, 5000, 5001)), "");
  // Same data endpoint: rejected, not registered.
  const std::string collision = directory.add(2, membership(0xEF00'0001u, 5000, 6001));
  EXPECT_NE(collision.find("collides"), std::string::npos) << collision;
  EXPECT_EQ(directory.size(), 1u);
  // Same address on a different port, and a different address on the same
  // port, are both distinct endpoints: fine.
  EXPECT_EQ(directory.add(3, membership(0xEF00'0001u, 5003, 6001)), "");
  EXPECT_EQ(directory.add(4, membership(0xEF00'0002u, 5000, 7001)), "");
  // Unregistering frees the endpoint for reuse.
  directory.remove(1);
  EXPECT_EQ(directory.add(5, membership(0xEF00'0001u, 5000, 8001)), "");
  EXPECT_EQ(directory.size(), 3u);
}

}  // namespace
}  // namespace rmc::harness
