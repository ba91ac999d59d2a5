// Multi-tenant workload generator: many Sessions, one fabric.
//
// The paper measures one sender saturating one group; the production
// regime is many overlapping groups contending for the same switches.
// TenantMix multiplexes N independent rmcast::Sessions ("tenants") over
// one shared inet::Cluster: sessions start at Poisson arrivals, tenants
// pick disjoint or colliding host subsets, and a scripted churn plan has
// receivers join late, leave mid-transfer, or fail-stop with their host
// (all through the PR 2 membership/eviction machinery — the sender evicts
// whoever goes silent and the survivors splice the ring/tree around it).
//
// Everything is deterministic given the spec's seed: one Rng draws the
// arrival process, the placements and the churn script up front, so a
// TenantMix run is a pure function of its spec — byte-identical metrics
// and traces at any sweep parallelism.
//
// Accounting mirrors the sweep engine: each tenant gets a private
// metrics::Registry whose snapshot rides in its TenantReport, and the
// registries are folded into spec.metrics in tenant order — exactly how
// SweepRunner folds sweep points. On top of the per-tenant reports the
// result carries the completion-time distribution, the Jain fairness
// index over per-tenant goodput, and (when a tracer is attached) the
// switch-queue contention matrix: whose frames displaced whose, recovered
// from the per-tenant packet tags the fabric stamps on every frame.
//
// Payload memory is shared by construction: the frame arena is
// thread-local, and every tenant's traffic runs on the one simulator
// thread, so all sessions carve their frames from the same arena blocks.
// Every tenant's delivery is byte-checked as run_multicast checks it
// (SessionTransfer), against a payload offset by the tenant's index.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "inet/cluster.h"
#include "rmcast/config.h"
#include "rmcast/report.h"
#include "sim/simulator.h"

namespace rmc::harness {

// Per-receiver churn probabilities. Each receiver of each tenant draws
// once, in a fixed order: late-join first, else leave, else crash. Delays
// are uniform in (0, max_*_delay] after the tenant's arrival; a crash's
// in (0, 80 ms] (kMaxCrashDelay in tenant.cc).
struct TenantChurnSpec {
  double late_join_fraction = 0.0;  // receiver joins after the transfer starts
  sim::Time max_join_delay = sim::milliseconds(40);
  double leave_fraction = 0.0;  // receiver departs the group mid-transfer
  sim::Time max_leave_delay = sim::milliseconds(80);
  double crash_fraction = 0.0;  // receiver's HOST fails-stop (blast radius!)

  bool any() const {
    return late_join_fraction > 0.0 || leave_fraction > 0.0 || crash_fraction > 0.0;
  }
};

enum class TenantPlacementPolicy {
  // Tenant t owns hosts [t*(R+1), (t+1)*(R+1)): no host sharing, so
  // tenants only meet in the switch fabric. Needs n_tenants*(R+1) hosts.
  kDisjoint,
  // Sender and receiver hosts drawn at random: tenants share hosts, and a
  // crashed host takes down every tenant with a receiver on it.
  kColliding,
};

struct TenantMixSpec {
  std::size_t n_tenants = 8;
  std::size_t receivers_per_tenant = 4;
  std::uint64_t message_bytes = 100'000;
  // Base protocol configuration. When `kinds` is non-empty, tenant t runs
  // kinds[t % kinds.size()] with the registry's recommended tuning for
  // (message_bytes, receivers_per_tenant); when empty, every tenant runs
  // `protocol` as given. Churn requires eviction, so any churn-enabled
  // mix with max_retransmit_rounds == 0 gets it raised to 5.
  rmcast::ProtocolConfig protocol;
  std::vector<rmcast::ProtocolKind> kinds;
  // Hosts in the shared fabric; 0 = the smallest count the placement
  // policy needs (disjoint: n_tenants*(R+1); colliding: max(R+2, 16)).
  std::size_t n_hosts = 0;
  // Fabric shape/link knobs; n_hosts and seed are overridden.
  inet::ClusterParams cluster;
  double arrival_rate_hz = 500.0;  // Poisson session-arrival intensity
  TenantChurnSpec churn;
  TenantPlacementPolicy placement = TenantPlacementPolicy::kColliding;
  std::uint64_t seed = 1;
  sim::Time time_limit = sim::seconds(120.0);
  // Fold target for the per-tenant registries (tenant order), plus the
  // mix-level metrics. Not owned; may be null.
  metrics::Registry* metrics = nullptr;
  // Shared fabric trace: tagged with tag_rmcast_tenant_packet so drops
  // inside shared switches attribute to tenants. Not owned; may be null.
  trace::Tracer* tracer = nullptr;
};

struct TenantReport {
  std::size_t tenant = 0;
  const char* protocol = "";
  double arrival_seconds = 0.0;
  bool completed = false;  // the sender reported a DeliveryReport
  bool all_delivered = false;
  bool payload_ok = true;
  double turnaround_seconds = 0.0;  // arrival -> completion
  std::uint64_t message_bytes = 0;
  std::size_t n_receivers = 0;
  std::size_t n_evicted = 0;
  std::size_t n_late_joins = 0;
  std::size_t n_leaves = 0;
  std::size_t n_crashes = 0;
  rmcast::SendOutcome outcome;
  std::string metrics_json;  // the tenant's private registry snapshot

  // Per-tenant goodput; the Jain index input. 0 until completed.
  double goodput_bps() const {
    if (!completed || turnaround_seconds <= 0.0) return 0.0;
    return static_cast<double>(message_bytes) * 8.0 / turnaround_seconds;
  }
};

struct TenantMixResult {
  bool completed = false;  // every tenant reported
  std::string error;
  std::vector<TenantReport> tenants;
  double makespan_seconds = 0.0;  // first arrival (t=0) to last completion
  double jain_fairness = 0.0;     // over per-tenant goodput
  // Completion-time (turnaround) distribution over completed tenants.
  double completion_p50_seconds = 0.0;
  double completion_p95_seconds = 0.0;
  double completion_max_seconds = 0.0;
  std::uint64_t events_executed = 0;
  // contention[victim][culprit]: queue-overflow drops of victim's frames,
  // each split across the tenants whose frames occupied the overflowing
  // queue (the displacers). n_tenants x n_tenants; empty without a tracer.
  std::vector<std::vector<double>> contention;

  // Deterministic JSON: the per-tenant report table plus the mix-level
  // stats (metrics_json snapshots are NOT embedded — they are compared
  // directly by the determinism suite and folded via spec.metrics).
  std::string to_json() const;
};

// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1.0 = perfectly fair,
// 1/n = one tenant got everything; 0 for an empty or all-zero input.
double jain_index(const std::vector<double>& xs);

// Rebuilds per-queue tenant composition from a tenant-tagged fabric trace
// and splits each queue-overflow drop across the tenants occupying that
// queue. FIFO pairing of enqueue/wire-tx events per track; frames removed
// by link-down faults are not unwound, so attribution under link flaps is
// approximate.
std::vector<std::vector<double>> attribute_contention(const trace::Tracer& tracer,
                                                      std::size_t n_tenants);

TenantMixResult run_tenant_mix(const TenantMixSpec& spec);

}  // namespace rmc::harness
