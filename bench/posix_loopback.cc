// Beyond the paper: raw datagram throughput of the Posix I/O path over
// loopback. Each cell pumps a continuous stream of fixed-size datagrams
// from one PosixUdpSocket to another for a fixed wall duration through
// the one production path (TX ring drained with sendmmsg + UDP_SEGMENT
// coalescing, recvmmsg RX slab) and reports delivered packets/sec,
// bytes/sec and datagrams per transmit syscall.
//
// The side-channel report (--report-out=FILE, the BENCH_posix_io.json
// artifact) carries every cell and an embedded sim-vs-real parity report
// (harness::run_parity). bench/smoke.sh gates on both: the 1 KiB cell
// must hand the kernel >= 32 datagrams per transmit syscall (the batching
// the path exists for; GSO lifts it far higher, plain sendmmsg caps it at
// its 64-message batch), and the parity run must deliver byte-exact
// transfers.
//
// Real sockets, real clock: unlike the simulator benches, output is NOT
// deterministic and cells run serially in-process (--jobs is accepted
// for flag-set uniformity and ignored).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "harness/parity.h"
#include "runtime/posix_runtime.h"

namespace rmc {
namespace {

// Port plan (loopback, disjoint from the parity tests' 48300/48400
// blocks): throughput cell i receives on 48600 + i, the embedded parity
// run uses the 48700 block.
constexpr std::uint16_t kCellBasePort = 48600;
constexpr std::uint16_t kParityBasePort = 48700;

struct Cell {
  std::size_t payload_bytes = 0;

  // Results.
  bool ran = false;
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t tx_syscalls = 0;
  std::uint64_t gso_superframes = 0;

  double pps() const { return seconds > 0 ? static_cast<double>(received) / seconds : 0; }
  double mbytes_per_sec() const {
    return pps() * static_cast<double>(payload_bytes) / 1e6;
  }
  // Datagrams handed to the kernel per transmit syscall: the batch/GSO
  // multiplier.
  double datagrams_per_syscall() const {
    return tx_syscalls > 0 ? static_cast<double>(sent) / static_cast<double>(tx_syscalls)
                           : 0.0;
  }
};

// One timed pump: stream datagrams of cell.payload_bytes from a fresh
// socket pair for `duration` seconds. Returns false when the OS refused
// the sockets (sandbox) — the whole bench then skips.
bool run_cell(Cell& cell, std::uint16_t port, double duration,
              metrics::Registry* fold_into) {
  rt::PosixRuntime runtime;

  rt::PosixSocketOptions rx_options;
  rx_options.bind_addr = net::Ipv4Addr(127, 0, 0, 1);
  rx_options.port = port;
  rx_options.rcvbuf_bytes = 4 * 1024 * 1024;
  // Slab slots sized to the cell's datagrams (plus headroom) instead of
  // the 16 KiB default: 32 slots then fit in L2 and the recvmmsg drain
  // stays cache-hot.
  rx_options.max_datagram_bytes = std::max<std::size_t>(cell.payload_bytes * 2, 2048);
  auto rx = runtime.open_socket(rx_options);

  rt::PosixSocketOptions tx_options;
  tx_options.bind_addr = net::Ipv4Addr(127, 0, 0, 1);
  tx_options.sndbuf_bytes = 4 * 1024 * 1024;
  auto tx = runtime.open_socket(tx_options);
  if (!rx || !tx) return false;

  rx->set_handler([&cell](const net::Endpoint&, BytesView payload) {
    if (payload.size() == cell.payload_bytes) ++cell.received;
  });

  const net::Endpoint dst = {net::Ipv4Addr(127, 0, 0, 1), port};
  const net::PayloadRef payload =
      net::PayloadRef::copy_of(BytesView(Buffer(cell.payload_bytes, 0x5a).data(),
                                         cell.payload_bytes));

  // The pump runs as a zero-delay timer so every burst is enqueued
  // *inside* the event loop — the TX ring then drains once per loop
  // iteration (one sendmmsg per burst) instead of flushing synchronously
  // per datagram. Each send shares the one prebuilt arena block through
  // the zero-copy send_ref path (what the protocol serializer uses), so
  // the cell measures the I/O path and not a memcpy. 512 per iteration
  // stays under the ring capacity while leaving the loop time to drain
  // the RX side.
  constexpr int kBurst = 512;
  bool done = false;
  std::function<void()> pump = [&] {
    if (done) return;
    for (int i = 0; i < kBurst; ++i) tx->send_ref(dst, payload);
    cell.sent += kBurst;
    runtime.schedule_after(sim::Time(0), pump);
  };
  runtime.schedule_after(sim::Time(0), pump);
  runtime.schedule_after(sim::seconds(duration), [&] {
    done = true;
    runtime.stop();
  });

  const sim::Time t0 = runtime.now();
  runtime.run();
  // Grace drain: let in-flight datagrams land so `received` reflects what
  // the kernel actually delivered, but time only the pumped window.
  runtime.run_for(sim::seconds(0.05));
  cell.seconds = sim::to_seconds(runtime.now() - t0);
  cell.ran = true;

  metrics::Registry& m = runtime.metrics();
  cell.tx_syscalls = m.counter("posix.sendmmsg_calls").value();
  cell.gso_superframes = m.counter("posix.gso_superframes").value();
  if (fold_into != nullptr) fold_into->merge(m);
  return true;
}

std::string cell_json(const Cell& cell) {
  return str_format(
      "{\"payload_bytes\": %zu, \"seconds\": %.4f, "
      "\"sent\": %llu, \"received\": %llu, \"packets_per_sec\": %.0f, "
      "\"mbytes_per_sec\": %.1f, \"tx_syscalls\": %llu, "
      "\"datagrams_per_syscall\": %.1f, \"gso_superframes\": %llu}",
      cell.payload_bytes, cell.seconds,
      static_cast<unsigned long long>(cell.sent),
      static_cast<unsigned long long>(cell.received), cell.pps(), cell.mbytes_per_sec(),
      static_cast<unsigned long long>(cell.tx_syscalls), cell.datagrams_per_syscall(),
      static_cast<unsigned long long>(cell.gso_superframes));
}

void write_report(const std::string& path, const std::string& body) {
  if (path.empty()) return;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "could not write report to %s\n", path.c_str());
    return;
  }
  std::fputs(body.c_str(), out);
  std::fputc('\n', out);
  std::fclose(out);
}

int run(int argc, char** argv) {
  Flags flags = Flags::parse(
      argc, argv,
      {{"csv", "emit CSV instead of an aligned table"},
       {"quick", "shorter timed windows and a smaller parity transfer"},
       {"trials", "ignored (each cell is one timed window)"},
       {"seed", "ignored (real sockets, real clock)"},
       {"jobs", "ignored (cells share the loopback device; they run serially)"},
       {"metrics-out", "write a JSON metrics snapshot to FILE at exit"},
       {"trace-out", "write a (run-less) trace-event JSON file at exit"},
       {"report-out", "write the BENCH_posix_io.json gate artifact to FILE"}});
  bench::BenchOptions options;
  options.csv = flags.has("csv");
  options.quick = flags.has("quick");
  options.metrics_out = flags.get("metrics-out", "");
  options.trace_out = flags.get("trace-out", "");
  const std::string report_out = flags.get("report-out", "");
  bench::enable_metrics_snapshot(options.metrics_out);
  bench::enable_trace_export(options.trace_out);
  metrics::Registry* fold =
      bench::metrics_enabled(options) ? &bench::bench_metrics() : nullptr;

  const double duration = options.quick ? 0.25 : 1.0;
  std::vector<Cell> cells;
  for (const std::size_t payload : {std::size_t{256}, std::size_t{1024}, std::size_t{8192}}) {
    cells.push_back({payload});
  }

  bool sockets_ok = true;
  for (std::size_t i = 0; i < cells.size() && sockets_ok; ++i) {
    sockets_ok = run_cell(cells[i], static_cast<std::uint16_t>(kCellBasePort + i),
                          duration, fold);
  }
  if (!sockets_ok) {
    std::printf("posix_loopback: OS refused UDP sockets (sandbox?) — skipping\n");
    write_report(report_out,
                 "{\"benchmark\": \"posix_io\", \"skipped\": true, "
                 "\"reason\": \"posix sockets unavailable\"}");
    return 0;
  }

  harness::Table table({"payload", "pkts/s", "MB/s", "dgram/syscall", "delivered"});
  for (const Cell& cell : cells) {
    table.add_row({str_format("%zu", cell.payload_bytes),
                   str_format("%.0f", cell.pps()),
                   str_format("%.1f", cell.mbytes_per_sec()),
                   str_format("%.1f", cell.datagrams_per_syscall()),
                   str_format("%.3f", cell.sent > 0
                                          ? static_cast<double>(cell.received) /
                                                static_cast<double>(cell.sent)
                                          : 0.0)});
  }
  bench::emit(table, options, "Posix loopback datagram throughput (sendmmsg/GSO)");

  // Parity rider: the fast path must still deliver byte-exact transfers.
  harness::ParitySpec parity_spec;
  parity_spec.base_port = kParityBasePort;
  parity_spec.message_bytes = options.quick ? 100'000 : 400'000;
  const harness::ParityReport parity = harness::run_parity(parity_spec);
  std::printf("parity: ok=%d posix_ran=%d (sim %.4fs, posix %.4fs)\n",
              parity.ok ? 1 : 0, parity.posix_ran ? 1 : 0, parity.sim.seconds,
              parity.posix.seconds);
  if (fold != nullptr) {
    fold->merge(parity.sim.metrics);
    fold->merge(parity.posix.metrics);
  }

  std::string report = "{\"benchmark\": \"posix_io\", \"skipped\": false, ";
  report += str_format("\"duration_per_cell_seconds\": %.2f, ", duration);
  report += str_format("\"parity_ok\": %s, ", parity.ok ? "true" : "false");
  report += "\"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) report += ", ";
    report += cell_json(cells[i]);
  }
  report += "], \"parity\": " + parity.to_json() + "}";
  write_report(report_out, report);

  return parity.ok || !parity.posix_ran ? 0 : 1;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
