#include "harness/tenant.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/panic.h"
#include "common/rng.h"
#include "common/strings.h"
#include "harness/experiment.h"
#include "harness/trace_export.h"
#include "rmcast/engine/registry.h"
#include "rmcast/session.h"

namespace rmc::harness {

namespace {

// One scheduled churn action.
struct ChurnEvent {
  enum class Kind { kJoin, kLeave, kCrash } kind;
  std::size_t tenant = 0;
  std::size_t receiver = 0;  // node id within the tenant
  std::size_t host = 0;      // kCrash only
  sim::Time at = 0;
};

// Uniform delay in [1, max] (1 ns floor keeps Rng::uniform's bound
// nonzero and the action strictly after the arrival).
sim::Time churn_delay(Rng& rng, sim::Time max_delay) {
  const std::uint64_t bound =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(max_delay));
  return 1 + static_cast<sim::Time>(rng.uniform(bound));
}

// Latest a scripted host crash fires after its tenant's arrival.
constexpr sim::Time kMaxCrashDelay = sim::milliseconds(80);

struct TenantState {
  rmcast::ProtocolConfig config;
  rmcast::SessionPlacement placement;
  metrics::Registry registry;
  sim::Time arrival = 0;
  std::size_t n_late_joins = 0;
  std::size_t n_leaves = 0;
  std::size_t n_crashes = 0;
};

// The per-tenant slice of the observability contract: protocol counters
// from the tenant's own sender/receivers (same metric names as the
// single-run exporter, so dashboards read either) plus the tenant.* tier.
void export_tenant_metrics(rmcast::Session& session, const TenantReport& report,
                           metrics::Registry& m) {
  const rmcast::SenderStats& s = session.sender().stats();
  m.counter("sender.data_packets_sent").inc(s.data_packets_sent);
  m.counter("sender.retransmissions").inc(s.retransmissions);
  m.counter("sender.acks_received").inc(s.acks_received);
  m.counter("sender.naks_received").inc(s.naks_received);
  m.counter("sender.rto_fires").inc(s.rto_fires);
  m.counter("sender.window_stalls").inc(s.window_stalls);
  m.counter("sender.receivers_evicted").inc(s.receivers_evicted);

  std::uint64_t delivered = 0, acks = 0, naks = 0, duplicates = 0, gaps = 0;
  for (std::size_t i = 0; i < session.n_receivers(); ++i) {
    if (!session.receiver_joined(i)) continue;
    const rmcast::ReceiverStats& r = session.receiver(i).stats();
    delivered += r.messages_delivered;
    acks += r.acks_sent;
    naks += r.naks_sent;
    duplicates += r.duplicates;
    gaps += r.gaps_detected;
  }
  m.counter("receiver.messages_delivered").inc(delivered);
  m.counter("receiver.acks_sent").inc(acks);
  m.counter("receiver.naks_sent").inc(naks);
  m.counter("receiver.duplicates").inc(duplicates);
  m.counter("receiver.gaps_detected").inc(gaps);

  m.counter("tenant.sessions").inc();
  if (report.completed) {
    m.counter("tenant.sessions_completed").inc();
    m.histogram("tenant.turnaround_us").record_seconds(report.turnaround_seconds);
  }
  m.counter("tenant.receivers_evicted").inc(report.n_evicted);
  m.counter("tenant.late_joins").inc(report.n_late_joins);
  m.counter("tenant.leaves").inc(report.n_leaves);
  m.counter("tenant.host_crashes").inc(report.n_crashes);
}

}  // namespace

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

std::vector<std::vector<double>> attribute_contention(const trace::Tracer& tracer,
                                                      std::size_t n_tenants) {
  std::vector<std::vector<double>> matrix(n_tenants,
                                          std::vector<double>(n_tenants, 0.0));
  // Tenant index from a tenant tag; npos for untagged / out-of-range.
  const std::size_t npos = static_cast<std::size_t>(-1);
  auto tenant_of = [&](std::uint32_t tag) -> std::size_t {
    if (!tag_valid(tag)) return npos;
    const std::uint8_t t = tenant_tag_tenant(tag);
    if (t == 0 || static_cast<std::size_t>(t) > n_tenants) return npos;
    return static_cast<std::size_t>(t) - 1;
  };
  // FIFO composition of every transmit queue, tracked per net track:
  // enqueue pushes the frame's tenant, wire-serialization pops it.
  std::unordered_map<std::uint16_t, std::deque<std::size_t>> queues;
  for (const trace::Event& e : tracer.events()) {
    switch (e.kind) {
      case trace::EventKind::kEnqueue: {
        const std::size_t t = tenant_of(e.a);
        if (t != npos) queues[e.track].push_back(t);
        break;
      }
      case trace::EventKind::kWireTx: {
        const std::size_t t = tenant_of(e.a);
        if (t == npos) break;
        auto it = queues.find(e.track);
        if (it != queues.end() && !it->second.empty()) it->second.pop_front();
        break;
      }
      case trace::EventKind::kDrop: {
        if (static_cast<trace::DropCause>(e.b) != trace::DropCause::kQueueOverflow) {
          break;
        }
        const std::size_t victim = tenant_of(e.a);
        if (victim == npos) break;
        const auto it = queues.find(e.track);
        if (it == queues.end() || it->second.empty()) {
          // The full queue held only untagged frames; the victim can only
          // blame itself (its own earlier frames are untracked here).
          matrix[victim][victim] += 1.0;
          break;
        }
        // Split the drop across the tenants whose frames filled the queue.
        const double share = 1.0 / static_cast<double>(it->second.size());
        for (std::size_t occupant : it->second) matrix[victim][occupant] += share;
        break;
      }
      default:
        break;
    }
  }
  return matrix;
}

std::string TenantMixResult::to_json() const {
  std::string out = "{\n";
  out += str_format("  \"completed\": %s,\n", completed ? "true" : "false");
  out += str_format("  \"tenants\": %zu,\n", tenants.size());
  out += str_format("  \"makespan_seconds\": %.6f,\n", makespan_seconds);
  out += str_format("  \"jain_fairness\": %.6f,\n", jain_fairness);
  out += str_format(
      "  \"completion\": {\"p50\": %.6f, \"p95\": %.6f, \"max\": %.6f},\n",
      completion_p50_seconds, completion_p95_seconds, completion_max_seconds);
  out += str_format("  \"events_executed\": %llu,\n",
                    static_cast<unsigned long long>(events_executed));
  out += "  \"per_tenant\": [\n";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantReport& t = tenants[i];
    out += str_format(
        "    {\"tenant\": %zu, \"protocol\": \"%s\", \"arrival\": %.6f, "
        "\"completed\": %s, \"all_delivered\": %s, \"turnaround\": %.6f, "
        "\"goodput_bps\": %.1f, \"receivers\": %zu, \"evicted\": %zu, "
        "\"late_joins\": %zu, \"leaves\": %zu, \"crashes\": %zu}%s\n",
        t.tenant, t.protocol, t.arrival_seconds, t.completed ? "true" : "false",
        t.all_delivered ? "true" : "false", t.turnaround_seconds, t.goodput_bps(),
        t.n_receivers, t.n_evicted, t.n_late_joins, t.n_leaves, t.n_crashes,
        i + 1 < tenants.size() ? "," : "");
  }
  out += "  ]";
  if (!contention.empty()) {
    out += ",\n  \"contention\": [\n";
    for (std::size_t v = 0; v < contention.size(); ++v) {
      out += "    [";
      for (std::size_t c = 0; c < contention[v].size(); ++c) {
        out += str_format("%.3f%s", contention[v][c],
                          c + 1 < contention[v].size() ? ", " : "");
      }
      out += str_format("]%s\n", v + 1 < contention.size() ? "," : "");
    }
    out += "  ]";
  }
  out += "\n}\n";
  return out;
}

TenantMixResult run_tenant_mix(const TenantMixSpec& spec) {
  TenantMixResult result;
  const std::size_t n = spec.n_tenants;
  const std::size_t R = spec.receivers_per_tenant;
  RMC_ENSURE(n >= 1, "mix needs at least one tenant");
  RMC_ENSURE(R >= 1, "tenants need at least one receiver");
  RMC_ENSURE(n <= 15'000, "port-triple scheme tops out at 15000 tenants");

  // Fabric sizing.
  std::size_t n_hosts = spec.n_hosts;
  if (spec.placement == TenantPlacementPolicy::kDisjoint) {
    const std::size_t need = n * (R + 1);
    if (n_hosts == 0) n_hosts = need;
    if (n_hosts < need) {
      result.error = str_format("disjoint placement of %zu tenants x %zu receivers "
                                "needs %zu hosts, have %zu",
                                n, R, need, n_hosts);
      return result;
    }
  } else {
    if (n_hosts == 0) n_hosts = std::max<std::size_t>(R + 2, 16);
    if (n_hosts < R + 2) {
      result.error = str_format("colliding placement needs at least %zu hosts", R + 2);
      return result;
    }
  }

  inet::ClusterParams cluster_params = spec.cluster;
  cluster_params.n_hosts = n_hosts;
  cluster_params.seed = spec.seed;
  inet::Cluster cluster(cluster_params);
  if (spec.tracer != nullptr) {
    spec.tracer->set_packet_tagger(tag_rmcast_tenant_packet);
    cluster.attach_tracer(spec.tracer);
  }

  // The whole script — arrivals, placements, churn — is drawn up front
  // from one generator in a fixed order, so the run is a pure function of
  // the seed no matter how the simulation itself interleaves.
  Rng rng(spec.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<TenantState> tenants(n);
  std::vector<ChurnEvent> churn;
  sim::Time clock = 0;
  for (std::size_t t = 0; t < n; ++t) {
    TenantState& state = tenants[t];

    // Poisson arrivals: exponential inter-arrival gaps.
    const double gap_seconds =
        -std::log(1.0 - rng.uniform01()) / std::max(spec.arrival_rate_hz, 1e-6);
    clock += sim::seconds(gap_seconds);
    state.arrival = clock;

    // Protocol.
    state.config = spec.protocol;
    if (!spec.kinds.empty()) {
      state.config.kind = spec.kinds[t % spec.kinds.size()];
      const rmcast::EngineEntry& entry =
          rmcast::ProtocolRegistry::instance().entry(state.config.kind);
      entry.traits.apply_recommended_tuning(state.config, spec.message_bytes, R);
    }
    if (spec.churn.any() && state.config.max_retransmit_rounds == 0) {
      state.config.max_retransmit_rounds = 5;  // churn requires eviction
    }
    std::string config_error = rmcast::validate(state.config, R);
    if (!config_error.empty()) {
      result.error = str_format("tenant %zu: %s", t, config_error.c_str());
      return result;
    }

    // Placement.
    rmcast::SessionPlacement& p = state.placement;
    if (spec.placement == TenantPlacementPolicy::kDisjoint) {
      p.sender_host = t * (R + 1);
      for (std::size_t r = 0; r < R; ++r) p.receiver_hosts.push_back(p.sender_host + 1 + r);
    } else {
      p.sender_host = rng.uniform(n_hosts);
      while (p.receiver_hosts.size() < R) {
        const std::size_t h = rng.uniform(n_hosts);
        if (h == p.sender_host) continue;
        if (std::find(p.receiver_hosts.begin(), p.receiver_hosts.end(), h) !=
            p.receiver_hosts.end()) {
          continue;
        }
        p.receiver_hosts.push_back(h);
      }
    }
    p.group = {net::Ipv4Addr(0xEF00'0100u + static_cast<std::uint32_t>(t)),
               static_cast<std::uint16_t>(20'000 + 3 * t)};
    p.sender_control_port = static_cast<std::uint16_t>(20'001 + 3 * t);
    p.receiver_control_port = static_cast<std::uint16_t>(20'002 + 3 * t);
    p.session_base = static_cast<std::uint32_t>(t + 1) << 16;

    // Churn script: one draw per receiver, fixed priority join > leave >
    // crash so the probabilities stay independent knobs.
    for (std::size_t r = 0; r < R; ++r) {
      if (rng.chance(spec.churn.late_join_fraction)) {
        p.deferred.push_back(r);
        churn.push_back({ChurnEvent::Kind::kJoin, t, r, 0,
                         state.arrival + churn_delay(rng, spec.churn.max_join_delay)});
        ++state.n_late_joins;
      } else if (rng.chance(spec.churn.leave_fraction)) {
        churn.push_back({ChurnEvent::Kind::kLeave, t, r, 0,
                         state.arrival + churn_delay(rng, spec.churn.max_leave_delay)});
        ++state.n_leaves;
      } else if (rng.chance(spec.churn.crash_fraction)) {
        churn.push_back({ChurnEvent::Kind::kCrash, t, r, p.receiver_hosts[r],
                         state.arrival + churn_delay(rng, kMaxCrashDelay)});
        ++state.n_crashes;
      }
    }
  }

  // Bring the sessions up (tenant order) behind the cross-group guard.
  rmcast::GroupDirectory directory;
  std::vector<std::unique_ptr<rmcast::Session>> sessions;
  std::vector<std::unique_ptr<SessionTransfer>> transfers;
  sessions.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    sessions.push_back(std::make_unique<rmcast::Session>(
        cluster, tenants[t].placement, tenants[t].config, &tenants[t].registry,
        &directory));
    // Each tenant's payload pattern is offset by its index so a
    // cross-tenant delivery mixup (the bug the GroupDirectory exists to
    // prevent) fails the payload check instead of passing by coincidence.
    transfers.push_back(std::make_unique<SessionTransfer>(
        *sessions[t], make_pattern(spec.message_bytes, t * 17)));
  }

  // Schedule the script.
  sim::Simulator& simulator = cluster.simulator();
  for (std::size_t t = 0; t < n; ++t) {
    simulator.schedule_at(tenants[t].arrival,
                          [&transfer = *transfers[t]] { transfer.start(); });
  }
  for (const ChurnEvent& event : churn) {
    switch (event.kind) {
      case ChurnEvent::Kind::kJoin:
        simulator.schedule_at(event.at, [&sessions, event] {
          sessions[event.tenant]->join_receiver(event.receiver);
        });
        break;
      case ChurnEvent::Kind::kLeave:
        simulator.schedule_at(event.at, [&sessions, event] {
          sessions[event.tenant]->leave_receiver(event.receiver);
        });
        break;
      case ChurnEvent::Kind::kCrash:
        simulator.schedule_at(event.at, [&cluster, event] {
          cluster.set_host_down(event.host, true);
        });
        break;
    }
  }

  // Tenants finish out of order; `prefix` skips the finished ones in front.
  std::size_t prefix = 0;
  auto all_done = [&] {
    while (prefix < n && transfers[prefix]->done()) ++prefix;
    return prefix == n;
  };
  while (!all_done() && simulator.now() < spec.time_limit) {
    if (!simulator.step()) break;
  }
  const auto n_done = static_cast<std::size_t>(std::count_if(
      transfers.begin(), transfers.end(), [](const auto& tr) { return tr->done(); }));
  result.events_executed = simulator.events_executed();

  // Per-tenant reports + the sweep-style registry fold (tenant order).
  std::vector<double> turnarounds;
  std::vector<double> goodputs;
  sim::Time last_completion = 0;
  for (std::size_t t = 0; t < n; ++t) {
    TenantState& state = tenants[t];
    TenantReport report;
    report.tenant = t;
    report.protocol = rmcast::protocol_name(state.config.kind);
    report.arrival_seconds = sim::to_seconds(state.arrival);
    report.message_bytes = spec.message_bytes;
    report.n_receivers = R;
    report.n_late_joins = state.n_late_joins;
    report.n_leaves = state.n_leaves;
    report.n_crashes = state.n_crashes;
    const SessionTransfer& transfer = *transfers[t];
    report.completed = transfer.done();
    if (report.completed) {
      const RunResult run = transfer.result();
      report.turnaround_seconds = run.seconds;
      report.outcome = run.outcome;
      report.all_delivered = run.outcome.all_delivered();
      report.n_evicted = run.outcome.n_evicted();
      last_completion = std::max(last_completion, transfer.completed_at());
      turnarounds.push_back(report.turnaround_seconds);
      if (!run.completed) {
        report.payload_ok = false;
        result.error = str_format("tenant %zu: %s", t, run.error.c_str());
      }
    }
    goodputs.push_back(report.goodput_bps());

    metrics::Registry& m = state.registry;
    m.set_meta("protocol", report.protocol);
    m.set_meta("seed", std::to_string(spec.seed));
    export_tenant_metrics(*sessions[t], report, m);
    report.metrics_json = m.to_json();
    if (spec.metrics != nullptr) spec.metrics->merge(m);
    result.tenants.push_back(std::move(report));
  }

  result.jain_fairness = jain_index(goodputs);
  result.makespan_seconds = sim::to_seconds(last_completion);
  std::sort(turnarounds.begin(), turnarounds.end());
  if (!turnarounds.empty()) {
    result.completion_p50_seconds = turnarounds[turnarounds.size() / 2];
    result.completion_p95_seconds = turnarounds[(turnarounds.size() * 95) / 100];
    result.completion_max_seconds = turnarounds.back();
  }

  if (spec.metrics != nullptr) {
    metrics::Registry& m = *spec.metrics;
    m.counter("mix.tenants").inc(n);
    m.counter("mix.tenants_completed").inc(n_done);
    m.gauge("mix.jain_fairness").set_max(result.jain_fairness);
    m.gauge("mix.makespan_seconds").set_max(result.makespan_seconds);
  }

  if (spec.tracer != nullptr) {
    result.contention = attribute_contention(*spec.tracer, n);
  }

  if (n_done < n && result.error.empty()) {
    result.error = str_format("%zu of %zu tenants unfinished after %.1fs of "
                              "simulated time",
                              n - n_done, n, sim::to_seconds(spec.time_limit));
  }
  result.completed = n_done == n && result.error.empty();
  return result;
}

}  // namespace rmc::harness
