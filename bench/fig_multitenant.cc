// Beyond the paper: multi-tenant session multiplexing. The paper measures
// one sender saturating one group; this bench runs a grid of TenantMix
// workloads — tenant count x churn x fabric topology — where hundreds of
// independent sessions share one switch fabric, arrive as a Poisson
// process, and (in the churn cells) have receivers join late or depart
// mid-transfer through the membership/eviction machinery. Each cell
// reports the per-tenant completion-time distribution, the Jain fairness
// index over per-tenant goodput, and the makespan.
//
// Output contract: stdout is fully deterministic — byte-identical at any
// --jobs value — so it participates in smoke.sh's parallel-identity gate,
// as does the side-channel report (--report-out=FILE, the
// BENCH_multitenant.json artifact) carrying every cell's full
// TenantMixResult (per-tenant rows, distribution stats, and — on the
// small cells, which run traced — the switch-queue contention matrix).

#include "bench_util.h"
#include "harness/tenant.h"
#include "rmcast/engine/registry.h"

namespace rmc {
namespace {

struct Cell {
  const char* topology;  // label AND shape selector
  net::TopologySpec topo;
  std::size_t n_hosts = 0;
  std::size_t tenants = 0;
  bool churn = false;
  // Small cells run with a private tracer so the report carries the
  // tenant-vs-tenant contention matrix; tracing a 200-tenant mix would
  // buffer millions of events for no extra signal.
  bool traced = false;
};

int run(int argc, char** argv) {
  // parse_options() plus the one bespoke flag (--report-out), so the flag
  // parser's unknown-flag check stays strict.
  Flags flags = Flags::parse(
      argc, argv,
      {{"csv", "emit CSV instead of an aligned table"},
       {"quick", "small tenant counts only (<= 12)"},
       {"trials", "ignored (one run per cell; the grid is the workload)"},
       {"seed", "base seed (default 1)"},
       {"jobs", "sweep worker threads (default: all cores; 1 = serial)"},
       {"metrics-out", "write a JSON metrics snapshot to FILE at exit"},
       {"trace-out", "write a (run-less) trace-event JSON file at exit"},
       {"report-out", "write the per-cell TenantMix reports (JSON) to FILE"}});
  bench::BenchOptions options;
  options.csv = flags.has("csv");
  options.quick = flags.has("quick");
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  options.metrics_out = flags.get("metrics-out", "");
  options.trace_out = flags.get("trace-out", "");
  const std::string report_out = flags.get("report-out", "");
  bench::enable_metrics_snapshot(options.metrics_out);
  // Cells trace privately (run_tenant_mix owns the tenant-tagged tracer,
  // whose attribution lands in the report), so the shared trace log stays
  // empty — but honoring the flag keeps the smoke gate's byte-identity
  // contract uniform across binaries.
  bench::enable_trace_export(options.trace_out);

  std::vector<Cell> cells;
  for (const bool churn : {false, true}) {
    for (const std::size_t tenants : {std::size_t{4}, std::size_t{12}}) {
      cells.push_back({"single_switch", net::TopologySpec::single_switch(), 16, tenants,
                       churn, /*traced=*/true});
      cells.push_back({"spine_leaf_8x2", net::TopologySpec::spine_leaf(8, 2), 16, tenants,
                       churn, /*traced=*/true});
    }
    if (!options.quick) {
      // The datacenter cells: up to 200 tenants multiplexed over a 64-host
      // spine-leaf fabric — the acceptance workload.
      for (const std::size_t tenants : {std::size_t{50}, std::size_t{200}}) {
        cells.push_back({"spine_leaf_16x4", net::TopologySpec::spine_leaf(16, 4), 64,
                         tenants, churn, /*traced=*/false});
      }
    }
  }

  harness::SweepRunner& runner = bench_runner(options);
  std::vector<harness::TenantMixResult> mixes(cells.size());
  std::vector<harness::SweepRunner::Ticket> tickets;
  tickets.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    harness::TenantMixSpec spec;
    spec.n_tenants = cell.tenants;
    spec.receivers_per_tenant = 4;
    spec.message_bytes = 100'000;
    // Every protocol family, round-robin across tenants: the mix is also
    // a cross-protocol coexistence experiment.
    for (const rmcast::EngineEntry& entry : rmcast::ProtocolRegistry::instance().entries()) {
      spec.kinds.push_back(entry.kind);
    }
    spec.n_hosts = cell.n_hosts;
    spec.cluster.topology = cell.topo;
    spec.arrival_rate_hz = 500.0;
    // Production posture: eviction armed in every cell, churn or not.
    // Hundreds of concurrent sessions colliding on one fabric WILL lose
    // acknowledgments into overflowing queues; without an eviction budget
    // a single starved session retransmits forever and the cell burns its
    // whole time limit (observed: the 200-tenant no-churn cell livelocked
    // at 7e8 events with 194 senders stuck).
    spec.protocol.max_retransmit_rounds = 5;
    if (cell.n_hosts >= 64) {
      // The datacenter cells get the fig_scalability_xl buffer treatment:
      // with LAN-default 512-frame ports, 200 near-simultaneous alloc
      // handshakes drop the same responses every retry round.
      spec.cluster.host.default_rcvbuf_bytes = 4 * 1024 * 1024;
      spec.cluster.host.default_sndbuf_bytes = 4 * 1024 * 1024;
      spec.cluster.link.queue_frames = 16'384;
    }
    if (cell.churn) {
      // Joins and leaves only: a host crash under colliding placement can
      // take another tenant's SENDER down with it, and a senderless
      // transfer just burns the time limit. Crash churn (and its blast
      // radius) is the churn test tier's subject, under placements built
      // for it.
      spec.churn.late_join_fraction = 0.15;
      spec.churn.leave_fraction = 0.15;
    }
    spec.placement = harness::TenantPlacementPolicy::kColliding;
    spec.seed = options.seed + i;
    const bool traced = cell.traced;
    harness::TenantMixResult* slot = &mixes[i];
    tickets.push_back(runner.submit_task([spec, traced, slot](metrics::Registry* registry) {
      harness::TenantMixSpec s = spec;
      s.metrics = registry;
      trace::Tracer tracer;
      if (traced) s.tracer = &tracer;
      *slot = harness::run_tenant_mix(s);
      harness::RunResult out;
      out.completed = slot->completed;
      out.error = slot->error;
      out.seconds = slot->makespan_seconds;
      out.message_bytes = s.message_bytes * s.n_tenants;
      out.events_executed = slot->events_executed;
      return out;
    }));
  }

  harness::Table table({"topology", "tenants", "churn", "completed", "jain", "p50_s",
                        "p95_s", "makespan_s", "events"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::RunResult& result = runner.result(tickets[i]);
    const harness::TenantMixResult& mix = mixes[i];
    if (!result.completed) {
      std::fprintf(stderr, "# %s tenants=%zu churn=%d FAILED: %s\n", cell.topology,
                   cell.tenants, cell.churn ? 1 : 0, result.error.c_str());
    }
    std::size_t completed = 0;
    for (const harness::TenantReport& t : mix.tenants) completed += t.completed ? 1 : 0;
    table.add_row({cell.topology, str_format("%zu", cell.tenants),
                   cell.churn ? "on" : "off",
                   str_format("%zu/%zu", completed, mix.tenants.size()),
                   str_format("%.4f", mix.jain_fairness),
                   str_format("%.6f", mix.completion_p50_seconds),
                   str_format("%.6f", mix.completion_p95_seconds),
                   str_format("%.6f", mix.makespan_seconds),
                   str_format("%llu", static_cast<unsigned long long>(mix.events_executed))});
  }
  bench::emit(table, options,
              "Multi-tenant mix: sessions multiplexed over one shared fabric "
              "(Poisson arrivals, join/leave churn, all protocol families)");

  if (!report_out.empty()) {
    std::FILE* out = std::fopen(report_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "could not write tenant report to %s\n", report_out.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"fig_multitenant\",\n  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      std::fprintf(out,
                   "    {\"topology\": \"%s\", \"tenants\": %zu, \"churn\": %s,\n"
                   "     \"mix\": %s}%s\n",
                   cell.topology, cell.tenants, cell.churn ? "true" : "false",
                   mixes[i].to_json().c_str(), i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!runner.result(tickets[i]).completed) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
