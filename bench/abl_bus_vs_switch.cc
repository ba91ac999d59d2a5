// Ablation: switched vs shared-media Ethernet (paper §3). On a CSMA/CD
// bus, every station competes for one collision domain, so protocols that
// generate many simultaneous acknowledgment transmissions (ACK-based)
// should suffer disproportionately, while the tree's protocol-level limit
// on simultaneous transmitters should help — the very motivation the
// paper gives for tree protocols on shared media.
#include "bench_util.h"

namespace rmc {
namespace {

int run(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_options(argc, argv);

  struct Proto {
    const char* label;
    rmcast::ProtocolConfig config;
  };
  std::vector<Proto> protos;
  {
    rmcast::ProtocolConfig c;
    c.kind = rmcast::ProtocolKind::kAck;
    c.packet_size = 8000;
    c.window_size = 20;
    protos.push_back({"ACK-based", c});
  }
  {
    rmcast::ProtocolConfig c;
    c.kind = rmcast::ProtocolKind::kNakPolling;
    c.packet_size = 8000;
    c.window_size = 20;
    c.poll_interval = 16;
    protos.push_back({"NAK-based", c});
  }
  {
    rmcast::ProtocolConfig c;
    c.kind = rmcast::ProtocolKind::kRing;
    c.packet_size = 8000;
    c.window_size = 40;
    protos.push_back({"Ring-based", c});
  }
  {
    rmcast::ProtocolConfig c;
    c.kind = rmcast::ProtocolKind::kFlatTree;
    c.packet_size = 8000;
    c.window_size = 20;
    c.tree_height = 6;
    protos.push_back({"Tree-based (H=6)", c});
  }

  harness::Table table({"protocol", "switched_seconds", "bus_seconds", "bus_penalty"});
  // Two-phase: enqueue both wirings for every protocol, then redeem rows.
  std::vector<bench::Measurement> switched_cells;
  std::vector<bench::Measurement> bus_cells;
  for (const Proto& proto : protos) {
    auto measure_with = [&](const net::TopologySpec& topology) {
      harness::MulticastRunSpec spec;
      spec.n_receivers = options.quick ? 10 : 15;
      spec.message_bytes = 500'000;
      spec.protocol = proto.config;
      spec.cluster.topology = topology;
      spec.time_limit = sim::seconds(300.0);
      return bench::measure_async(spec, options);
    };
    switched_cells.push_back(measure_with(net::TopologySpec::single_switch()));
    bus_cells.push_back(measure_with(net::TopologySpec::shared_bus()));
  }
  for (std::size_t i = 0; i < protos.size(); ++i) {
    double switched = switched_cells[i].seconds();
    double bus = bus_cells[i].seconds();
    std::string penalty =
        (switched > 0 && bus > 0) ? str_format("%.2fx", bus / switched) : "n/a";
    table.add_row({protos[i].label, bench::seconds_cell(switched),
                   bench::seconds_cell(bus), penalty});
  }
  bench::emit(table, options,
              "Ablation: switched vs CSMA/CD shared-bus Ethernet (500KB, 15 receivers)");
  return 0;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
