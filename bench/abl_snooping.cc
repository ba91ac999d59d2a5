// Ablation: switch multicast flooding vs IGMP-snooping-style filtering.
// The reproduced testbed's switches flooded every multicast frame to all
// 30 ports, so every NIC on the LAN saw the whole transfer whether or not
// its host had joined (paper §3, first LAN feature). With snooping, the
// switch forwards group traffic only to member ports: bystander hosts see
// nothing. Protocol time is unchanged on a switched LAN — the win is the
// bystanders' links and NICs.
#include "bench_util.h"
#include "rmcast/session.h"

namespace rmc {
namespace {

struct Outcome {
  double seconds = -1.0;
  std::uint64_t bystander_frames = 0;  // frames that reached non-member NICs
};

Outcome run_once(bool snooping, std::uint64_t seed) {
  constexpr std::size_t kHosts = 31;      // sender + 10 members + 20 bystanders
  constexpr std::size_t kReceivers = 10;

  inet::ClusterParams params;
  params.n_hosts = kHosts;
  params.multicast_snooping = snooping;
  params.seed = seed;
  inet::Cluster cluster(params);

  rmcast::SessionPlacement placement;
  for (std::size_t i = 0; i < kReceivers; ++i) placement.receiver_hosts.push_back(i + 1);

  rmcast::ProtocolConfig config;
  config.kind = rmcast::ProtocolKind::kNakPolling;
  config.packet_size = 8000;
  config.window_size = 25;
  config.poll_interval = 21;
  rmcast::Session session(cluster, placement, config);

  // Bystanders run an unrelated service: a bound socket, no join.
  for (std::size_t h = kReceivers + 1; h < kHosts; ++h) {
    cluster.host(h).open_socket()->bind(9999);
  }

  Buffer message(500'000);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint8_t>(i);
  }
  Outcome outcome;
  if (!session.send_and_wait(BytesView(message.data(), message.size()), sim::seconds(60.0))
           .has_value()) {
    return outcome;
  }
  outcome.seconds = sim::to_seconds(cluster.simulator().now());
  for (std::size_t h = kReceivers + 1; h < kHosts; ++h) {
    outcome.bystander_frames += cluster.host(h).stats().frames_in +
                                cluster.host(h).stats().frames_filtered;
  }
  return outcome;
}

int run(int argc, char** argv) {
  bench::BenchOptions options = bench::parse_options(argc, argv);

  harness::Table table({"switch_mode", "seconds", "frames_at_bystander_nics"});
  // Both modes ride the sweep runner as submit_task()s; the bystander
  // count travels through a per-slot side channel (one writer per slot,
  // read only after the handle resolves).
  harness::SweepRunner& runner = bench::bench_runner(options);
  std::vector<std::uint64_t> bystanders(2, 0);
  std::vector<bench::RunHandle> handles;
  std::size_t slot = 0;
  for (bool snooping : {false, true}) {
    const std::uint64_t seed = options.seed;
    const std::size_t my_slot = slot++;
    handles.emplace_back(
        &runner, runner.submit_task([&bystanders, my_slot, snooping,
                                     seed](metrics::Registry*) {
          Outcome outcome = run_once(snooping, seed);
          bystanders[my_slot] = outcome.bystander_frames;
          harness::RunResult result;
          result.completed = outcome.seconds >= 0;
          result.seconds = outcome.seconds;
          return result;
        }));
  }
  slot = 0;
  for (bool snooping : {false, true}) {
    const harness::RunResult& r = handles[slot].get();
    table.add_row({snooping ? "snooping" : "flooding (paper's testbed)",
                   r.completed ? str_format("%.6f", r.seconds) : "FAILED",
                   str_format("%llu", (unsigned long long)bystanders[slot])});
    ++slot;
  }
  bench::emit(table, options,
              "Ablation: multicast flooding vs snooping switches (500KB to 10 of 30 "
              "hosts)");
  return 0;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
