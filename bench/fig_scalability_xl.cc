// Beyond the paper: datacenter-scale receiver counts. The paper's testbed
// tops out at 31 hosts on two daisy-chained switches (Figure 7); this
// bench pushes every protocol family over a spine-leaf fabric to
// N = 10007 receivers, the regime the O(log N) roster/tracker refactor
// targets. The message is deliberately small (16 packets) so the
// simulator's per-acknowledgment bookkeeping — not the data plane — is
// the dominant cost, making per-event wall cost the scaling signal.
//
// Output contract: stdout (receivers, simulator events, sim seconds per
// protocol) is fully deterministic — byte-identical at any --jobs value —
// so it participates in smoke.sh's parallel-identity gate. Wall-clock
// numbers are inherently machine- and load-dependent, so they go to a
// side-channel JSON (--wallclock-out=FILE) that smoke.sh's sub-linear
// gate consumes instead.
#include <chrono>

#include "bench_util.h"
#include "rmcast/engine/registry.h"
#include "rmcast/recommend.h"

namespace rmc {
namespace {

struct Row {
  std::string protocol;
  std::size_t receivers = 0;
  bool completed = false;
  std::uint64_t events = 0;
  double sim_seconds = 0.0;
  double wall_seconds = 0.0;
};

int run(int argc, char** argv) {
  // parse_options() plus the one bespoke flag (--wallclock-out), so the
  // flag parser's unknown-flag check stays strict.
  Flags flags = Flags::parse(
      argc, argv,
      {{"csv", "emit CSV instead of an aligned table"},
       {"quick", "cap the receiver grid at 1023"},
       {"trials", "ignored (one run per cell; the grid is the workload)"},
       {"seed", "base seed (default 1)"},
       {"jobs", "sweep worker threads (cells are timed serially regardless)"},
       {"metrics-out", "write a JSON metrics snapshot to FILE at exit"},
       {"trace-out", "write a Perfetto trace-event JSON file to FILE at exit"},
       {"wallclock-out", "write per-cell wall-clock timings (JSON) to FILE"}});
  bench::BenchOptions options;
  options.csv = flags.has("csv");
  options.quick = flags.has("quick");
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  options.jobs = static_cast<std::size_t>(flags.get_int("jobs", 0));
  options.metrics_out = flags.get("metrics-out", "");
  options.trace_out = flags.get("trace-out", "");
  const std::string wallclock_out = flags.get("wallclock-out", "");
  bench::enable_metrics_snapshot(options.metrics_out);
  bench::enable_trace_export(options.trace_out);

  // 31 matches the paper's testbed; the rest climb to past ten thousand.
  std::vector<std::size_t> counts = {31, 127, 1023};
  if (!options.quick) {
    counts.push_back(4095);
    counts.push_back(10'007);
  }

  // 16 packets of 8 KB: small enough that control traffic dominates,
  // large enough that every protocol's window machinery engages.
  const std::uint64_t kMessageBytes = 131'072;
  const std::uint64_t kPacketBytes = 8192;

  std::vector<Row> rows;
  for (const rmcast::EngineEntry& entry : rmcast::ProtocolRegistry::instance().entries()) {
    for (std::size_t n : counts) {
      harness::MulticastRunSpec spec;
      spec.n_receivers = n;
      spec.message_bytes = kMessageBytes;
      spec.seed = options.seed;
      spec.protocol.kind = entry.kind;
      spec.protocol.packet_size = kPacketBytes;
      // The registry's recommended tuning keeps each kind's knobs
      // consistent at any N (the ring needs window > N, the trees a
      // height that covers N); re-pin the packet size afterwards so the
      // grid compares like transfers.
      entry.traits.apply_recommended_tuning(spec.protocol, kMessageBytes, n);
      spec.protocol.packet_size = kPacketBytes;
      // Spine-leaf fabric: 16 hosts per leaf, 4-way spine trunk.
      spec.cluster.topology = net::TopologySpec::spine_leaf(16, 4);
      // A 10^4-way control fan-in (every receiver's ALLOC_RSP converges
      // on the sender in the same instant) swamps LAN-sized buffers long
      // before the protocol is at fault: with the default 512-frame port
      // queue the same responses drop every retry round and the alloc
      // phase livelocks. Deep datacenter buffers keep the measured cost
      // protocol work rather than synchronized-implosion tail loss.
      spec.cluster.host.default_rcvbuf_bytes = 4 * 1024 * 1024;
      spec.cluster.host.default_sndbuf_bytes = 4 * 1024 * 1024;
      spec.cluster.link.queue_frames = 16'384;
      // The protocol timers assume a LAN-scale group too: scale them to
      // the fan-in the sender must absorb.
      rmcast::scale_timers_to_group(spec.protocol, n);
      if (!rmcast::validate(spec.protocol, n).empty()) continue;

      // Deliberately serial (submit, then immediately block): the wall
      // interval then times exactly one cell, and stdout ordering cannot
      // depend on worker count.
      const auto started = std::chrono::steady_clock::now();
      const harness::RunResult result = bench::run_instrumented(spec, options);
      const std::chrono::duration<double> wall =
          std::chrono::steady_clock::now() - started;

      Row row;
      row.protocol = entry.traits.id;
      row.receivers = n;
      row.completed = result.completed;
      row.events = result.events_executed;
      row.sim_seconds = result.seconds;
      row.wall_seconds = wall.count();
      // Progress to stderr only: stdout must stay byte-identical across
      // --jobs values and machines.
      std::fprintf(stderr, "# %-5s N=%-5zu %8.1fs wall  %12llu events%s\n",
                   row.protocol.c_str(), n, row.wall_seconds,
                   static_cast<unsigned long long>(row.events),
                   row.completed ? "" : "  (DID NOT COMPLETE)");
      rows.push_back(std::move(row));
    }
  }

  harness::Table table({"protocol", "receivers", "events", "sim_seconds"});
  for (const Row& row : rows) {
    table.add_row({row.protocol, str_format("%zu", row.receivers),
                   str_format("%llu", static_cast<unsigned long long>(row.events)),
                   row.completed ? str_format("%.6f", row.sim_seconds)
                                 : std::string("FAILED")});
  }
  bench::emit(table, options,
              "Scalability XL: all protocols on a spine-leaf fabric, N up to 10007");

  if (!wallclock_out.empty()) {
    std::FILE* out = std::fopen(wallclock_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "could not write wall-clock report to %s\n",
                   wallclock_out.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"fig_scalability_xl\",\n  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const double us_per_event =
          row.events > 0 ? row.wall_seconds * 1e6 / static_cast<double>(row.events)
                         : 0.0;
      std::fprintf(out,
                   "    {\"protocol\": \"%s\", \"receivers\": %zu, "
                   "\"completed\": %s, \"events\": %llu, "
                   "\"sim_seconds\": %.6f, \"wall_seconds\": %.6f, "
                   "\"wall_us_per_event\": %.6f}%s\n",
                   row.protocol.c_str(), row.receivers,
                   row.completed ? "true" : "false",
                   static_cast<unsigned long long>(row.events), row.sim_seconds,
                   row.wall_seconds, us_per_event, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }
  return 0;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
