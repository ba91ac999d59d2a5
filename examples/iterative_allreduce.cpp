// Iterative parallel computation over reliable multicast — the
// bulk-synchronous pattern (compute, allreduce, repeat) that dominates
// message-passing numerics, run on a simulated 4-node cluster.
//
// Each rank owns a slice of a vector and relaxes it toward a fixed point;
// after every sweep the ranks allreduce their local residuals to decide,
// collectively and identically, whether to stop. Every rank roots its own
// multicast group (see src/collectives/allgather.h for the wiring rules).
//
//   ./build/examples/iterative_allreduce
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "collectives/allgather.h"
#include "collectives/allreduce.h"
#include "common/strings.h"
#include "inet/cluster.h"
#include "rmcast/session.h"

namespace {

constexpr std::size_t kRanks = 4;
constexpr std::size_t kSliceElems = 2048;
constexpr int kMaxSweeps = 50;
constexpr double kTolerance = 1e-6;

rmc::rmcast::ProtocolConfig protocol() {
  rmc::rmcast::ProtocolConfig config;
  config.kind = rmc::rmcast::ProtocolKind::kNakPolling;
  config.packet_size = 8192;
  config.window_size = 8;
  config.poll_interval = 6;
  return config;
}

// One multicast group per rank: group g carries rank g's broadcasts from
// host g to every other rank.
struct Fabric {
  Fabric() : cluster(make_params()) {
    using namespace rmc;
    for (std::size_t g = 0; g < kRanks; ++g) {
      rmcast::SessionPlacement placement;
      placement.sender_host = g;
      for (std::size_t r = 0; r < kRanks; ++r) {
        if (r != g) placement.receiver_hosts.push_back(r);
      }
      placement.group = {net::Ipv4Addr(239, 0, 0, static_cast<std::uint8_t>(g + 1)),
                         static_cast<std::uint16_t>(5000 + g)};
      placement.sender_control_port = static_cast<std::uint16_t>(6000 + g);
      placement.receiver_control_port = static_cast<std::uint16_t>(7000 + g);
      groups.push_back(std::make_unique<rmcast::Session>(cluster, placement, protocol()));
    }
    for (std::size_t r = 0; r < kRanks; ++r) {
      // Rank r is node r of lower ranks' groups and node r - 1 of higher ones.
      std::vector<rmcast::MulticastReceiver*> per_group(kRanks, nullptr);
      for (std::size_t g = 0; g < kRanks; ++g) {
        if (g != r) per_group[g] = &groups[g]->receiver(r < g ? r : r - 1);
      }
      gathers.push_back(
          std::make_unique<collectives::AllgatherNode>(r, groups[r]->sender(), per_group));
      reducers.push_back(std::make_unique<collectives::AllreduceNode>(*gathers[r]));
    }
  }

  static rmc::inet::ClusterParams make_params() {
    rmc::inet::ClusterParams p;
    p.n_hosts = kRanks;
    p.wiring = rmc::inet::Wiring::kSingleSwitch;
    return p;
  }

  rmc::inet::Cluster cluster;
  std::vector<std::unique_ptr<rmc::rmcast::Session>> groups;
  std::vector<std::unique_ptr<rmc::collectives::AllgatherNode>> gathers;
  std::vector<std::unique_ptr<rmc::collectives::AllreduceNode>> reducers;
};

}  // namespace

int main() {
  using namespace rmc;

  Fabric fabric;

  // Each rank relaxes its slice toward zero; the residual is the slice's
  // max magnitude. Deterministic initial data per rank.
  std::vector<std::vector<double>> slices(kRanks, std::vector<double>(kSliceElems));
  for (std::size_t r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kSliceElems; ++i) {
      slices[r][i] = std::sin(static_cast<double>(r * kSliceElems + i));
    }
  }

  int sweep = 0;
  std::size_t reduced_this_sweep = 0;
  bool converged = false;
  rmc::sim::Time finished_at = 0;

  // One BSP superstep: local compute, then allreduce(max residual).
  std::function<void()> do_sweep = [&] {
    ++sweep;
    reduced_this_sweep = 0;
    for (std::size_t r = 0; r < kRanks; ++r) {
      double residual = 0.0;
      for (double& x : slices[r]) {
        x *= 0.5;  // the "solver"
        residual = std::max(residual, std::abs(x));
      }
      const double contribution[1] = {residual};
      fabric.reducers[r]->run(
          contribution, collectives::ReduceOp::kMax,
          [&, r](const std::vector<double>& result) {
            if (result.size() != 1) {
              std::fprintf(stderr, "rank %zu: bad allreduce result\n", r);
              std::exit(1);
            }
            if (++reduced_this_sweep == kRanks) {
              double global_residual = result[0];
              std::printf("sweep %2d  t=%8s  global residual %.3e\n", sweep,
                          format_seconds(sim::to_seconds(
                                             fabric.cluster.simulator().now()))
                              .c_str(),
                          global_residual);
              if (global_residual < kTolerance || sweep >= kMaxSweeps) {
                converged = global_residual < kTolerance;
                finished_at = fabric.cluster.simulator().now();
              } else {
                do_sweep();
              }
            }
          });
    }
  };

  do_sweep();
  fabric.cluster.simulator().run();

  std::printf("\n%s after %d sweeps (simulated %s)\n",
              converged ? "converged" : "stopped", sweep,
              format_seconds(sim::to_seconds(finished_at)).c_str());
  return converged ? 0 : 1;
}
