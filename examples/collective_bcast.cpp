// MPI-style collectives over reliable multicast — the message-passing
// building block the paper targets (§1: realizing collective
// communication over reliable multicast beats reliable unicast).
//
// Runs broadcast, scatter and barrier on a simulated 1+8-node job and
// checks the results like a parallel program would.
//
//   ./build/examples/collective_bcast
#include <cstdio>
#include <numeric>
#include <vector>

#include "collectives/broadcast.h"
#include "collectives/scatter.h"
#include "common/strings.h"
#include "rmcast/session.h"

namespace {

constexpr std::size_t kWorkers = 8;
constexpr rmc::sim::Time kLimit = rmc::sim::seconds(120.0);

}  // namespace

int main() {
  using namespace rmc;

  rmcast::SessionParams params;
  params.n_receivers = kWorkers;
  params.protocol.kind = rmcast::ProtocolKind::kNakPolling;
  params.protocol.packet_size = 8192;
  params.protocol.window_size = 16;
  params.protocol.poll_interval = 12;

  rmcast::Session job(params);
  collectives::Broadcaster bcast(job.sender());
  collectives::Scatterer scatter(job.sender());

  // --- MPI_Bcast: root distributes the problem definition. -----------------
  std::vector<double> problem(16384);
  std::iota(problem.begin(), problem.end(), 0.0);
  std::size_t bcast_received = 0;
  job.set_message_handler(
      [&bcast_received](std::size_t, const Buffer& message, std::uint32_t) {
        if (message.size() == 16384 * sizeof(double)) ++bcast_received;
      });
  bool done = false;
  sim::Time t0 = job.now();
  bcast.broadcast(BytesView(reinterpret_cast<const std::uint8_t*>(problem.data()),
                            problem.size() * sizeof(double)),
                  [&] { done = true; });
  job.run_until(done, kLimit);
  std::printf("MPI_Bcast   %8s   %zu/%zu workers received %s\n",
              format_seconds(sim::to_seconds(job.now() - t0)).c_str(),
              bcast_received, kWorkers, format_bytes(problem.size() * 8).c_str());

  // --- MPI_Scatter: each worker gets its own slice. -------------------------
  std::vector<Buffer> slices;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    Buffer slice(4096);
    for (auto& b : slice) b = static_cast<std::uint8_t>(w);
    slices.push_back(std::move(slice));
  }
  std::size_t scatter_ok = 0;
  job.set_message_handler(
      [&scatter_ok](std::size_t i, const Buffer& message, std::uint32_t) {
        auto mine =
            collectives::scatter_extract(BytesView(message.data(), message.size()), i);
        if (mine && mine->size() == 4096 && (*mine)[0] == static_cast<std::uint8_t>(i)) {
          ++scatter_ok;
        }
      });
  done = false;
  t0 = job.now();
  scatter.scatter(slices, [&] { done = true; });
  job.run_until(done, kLimit);
  std::printf("MPI_Scatter %8s   %zu/%zu workers got their slice\n",
              format_seconds(sim::to_seconds(job.now() - t0)).c_str(),
              scatter_ok, kWorkers);

  // --- Barrier: root-observed synchronisation point. ------------------------
  done = false;
  t0 = job.now();
  bcast.barrier([&] { done = true; });
  job.run_until(done, kLimit);
  std::printf("Barrier     %8s   all %zu workers checked in\n",
              format_seconds(sim::to_seconds(job.now() - t0)).c_str(),
              kWorkers);

  bool ok = bcast_received == kWorkers && scatter_ok == kWorkers && done;
  std::printf("\n%s\n", ok ? "all collectives verified" : "VERIFICATION FAILED");
  return ok ? 0 : 1;
}
