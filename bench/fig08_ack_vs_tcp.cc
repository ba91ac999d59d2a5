// Figure 8: communication time for transferring a 426502-byte file to 1..30
// receivers — TCP (sequential reliable unicast fan-out) against the
// ACK-based reliable multicast protocol. The paper's headline: TCP grows
// linearly with the receiver count; multicast stays nearly flat (+~6% from
// 1 to 30 receivers).
#include "bench_util.h"

namespace rmc {
namespace {

constexpr std::uint64_t kFileBytes = 426'502;

int run(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_options(argc, argv);

  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 30; n += options.quick ? 5 : 1) counts.push_back(n);

  harness::Table table({"receivers", "tcp_seconds", "ack_multicast_seconds"});
  // Two-phase: enqueue both curves for every count (the TCP baseline rides
  // the runner as a submit_task), then redeem rows in order.
  std::vector<bench::Measurement> tcp_cells;
  std::vector<bench::Measurement> ack_cells;
  for (std::size_t n : counts) {
    tcp_cells.push_back(bench::measure_async(
        [n](std::uint64_t seed) { return harness::run_tcp_fanout(n, kFileBytes, seed); },
        options));

    harness::MulticastRunSpec spec;
    spec.n_receivers = n;
    spec.message_bytes = kFileBytes;
    spec.protocol.kind = rmcast::ProtocolKind::kAck;
    spec.protocol.packet_size = 50'000;
    spec.protocol.window_size = 5;
    ack_cells.push_back(bench::measure_async(spec, options));
  }
  for (std::size_t i = 0; i < counts.size(); ++i) {
    table.add_row({str_format("%zu", counts[i]),
                   bench::seconds_cell(tcp_cells[i].seconds()),
                   bench::seconds_cell(ack_cells[i].seconds())});
  }
  bench::emit(table, options,
              "Figure 8: ACK-based multicast vs TCP fan-out, 426502-byte file");
  return 0;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
