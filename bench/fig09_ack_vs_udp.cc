// Figure 9: protocol overhead against raw UDP multicast across message
// sizes (single packet territory, up to 32 KB). Three curves: raw UDP
// (receivers reply on the last packet), the ACK-based protocol, and the
// ACK-based protocol without the user-space copy — the paper's
// deliberately incorrect variant that isolates the copy's cost.
#include "bench_util.h"

namespace rmc {
namespace {

int run(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_options(argc, argv);

  std::vector<std::uint64_t> sizes = {1,    64,    256,   1024,  4096,
                                      8192, 16384, 24576, 32768};
  if (options.quick) sizes = {1, 1024, 8192, 32768};

  harness::Table table(
      {"message_bytes", "udp_seconds", "ack_seconds", "ack_nocopy_seconds"});
  // Two-phase: enqueue all three curves for every size (the raw-UDP
  // baseline rides the runner as a submit_task), then redeem in order.
  std::vector<bench::Measurement> udp_cells;
  std::vector<bench::Measurement> ack_cells;
  std::vector<bench::Measurement> nocopy_cells;
  for (std::uint64_t size : sizes) {
    udp_cells.push_back(bench::measure_async(
        [size](std::uint64_t seed) { return harness::run_raw_udp(30, size, 50'000, seed); },
        options));

    harness::MulticastRunSpec spec;
    spec.n_receivers = 30;
    spec.message_bytes = size;
    spec.protocol.kind = rmcast::ProtocolKind::kAck;
    spec.protocol.packet_size = 50'000;
    spec.protocol.window_size = 5;
    ack_cells.push_back(bench::measure_async(spec, options));

    spec.protocol.copy_user_data = false;
    nocopy_cells.push_back(bench::measure_async(spec, options));
  }
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    table.add_row({str_format("%llu", static_cast<unsigned long long>(sizes[i])),
                   bench::seconds_cell(udp_cells[i].seconds()),
                   bench::seconds_cell(ack_cells[i].seconds()),
                   bench::seconds_cell(nocopy_cells[i].seconds())});
  }
  bench::emit(table, options, "Figure 9: ACK-based protocol vs raw UDP, 30 receivers");
  return 0;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
