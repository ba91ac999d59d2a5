// Development probe: one run with full statistics. Not part of the paper's
// tables; kept because it is the fastest way to see where a configuration's
// time goes (retransmissions, drops, ACK load).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "rmcast/engine/registry.h"

namespace rmc {
namespace {

int run(int argc, char** argv) {
  Flags flags = Flags::parse(argc, argv,
                             {{"proto", "registry id: ack|nak|ring|tree|btree|ecxor|ecrs"},
                              {"pkt", "packet size"},
                              {"win", "window"},
                              {"poll", "poll interval"},
                              {"height", "tree height"},
                              {"k", "FEC data blocks per group (EC kinds)"},
                              {"m", "FEC parity blocks per group (EC kinds)"},
                              {"bytes", "message size"},
                              {"n", "receivers"},
                              {"seed", "seed"},
                              {"loss", "frame error rate"},
                              {"burst", "Gilbert-Elliott p(good->bad); bursts avg 8 frames"},
                              {"sr", "selective repeat"},
                              {"mnak", "multicast nak suppression"},
                              {"peer", "peer repair"},
                              {"topo", "fabric: single|figure7|spineleaf|fattree|bus"},
                              {"radix", "host ports per leaf/edge switch (default 16)"},
                              {"spine", "spine planes / agg per pod (default 4)"},
                              {"queue", "port queue depth in frames (default 512)"},
                              {"rcvbuf", "socket receive buffer bytes"},
                              {"limit", "sim-time limit in seconds (default 5)"},
                              {"rtimeout", "receiver inactivity timeout in ms"},
                              {"rto", "sender retransmission timeout in ms"},
                              {"allocrto", "buffer-allocation retransmission timeout in ms"},
                              {"quick", "accepted for smoke-test uniformity (single run anyway)"},
                              {"metrics-out", "write a JSON metrics snapshot to FILE at exit"},
                              {"trace-out", "write a Perfetto trace-event JSON file to FILE at exit"}});
  bench::BenchOptions options;
  options.metrics_out = flags.get("metrics-out", "");
  options.trace_out = flags.get("trace-out", "");
  bench::enable_metrics_snapshot(options.metrics_out);
  bench::enable_trace_export(options.trace_out);
  harness::MulticastRunSpec spec;
  spec.n_receivers = static_cast<std::size_t>(flags.get_int("n", 30));
  spec.message_bytes = static_cast<std::uint64_t>(flags.get_int("bytes", 2 * 1024 * 1024));
  spec.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // Protocols resolve by registry id: a new engine entry is probe-able
  // with no edits here.
  std::string proto = flags.get("proto", "nak");
  const rmcast::EngineEntry* entry =
      rmcast::ProtocolRegistry::instance().find(proto.c_str());
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown --proto=%s; registry ids:", proto.c_str());
    for (const rmcast::EngineEntry& e : rmcast::ProtocolRegistry::instance().entries()) {
      std::fprintf(stderr, " %s", e.traits.id);
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  spec.protocol.kind = entry->kind;
  spec.protocol.packet_size = static_cast<std::size_t>(flags.get_int("pkt", 8000));
  spec.protocol.window_size = static_cast<std::size_t>(flags.get_int("win", 50));
  spec.protocol.poll_interval = static_cast<std::size_t>(flags.get_int("poll", 43));
  spec.protocol.tree_height = static_cast<std::size_t>(flags.get_int("height", 6));
  spec.protocol.selective_repeat = flags.has("sr");
  spec.protocol.multicast_nak_suppression = flags.has("mnak") || flags.has("peer");
  spec.protocol.peer_repair = flags.has("peer");
  if (flags.has("peer")) {
    spec.protocol.selective_repeat = true;
    spec.protocol.receiver_driven_timeouts = true;
  }
  if (entry->traits.fec) {
    spec.protocol.fec.k = static_cast<std::size_t>(
        flags.get_int("k", entry->kind == rmcast::ProtocolKind::kEcXor ? 16 : 32));
    spec.protocol.fec.m = static_cast<std::size_t>(
        flags.get_int("m", entry->kind == rmcast::ProtocolKind::kEcXor ? 1 : 8));
    spec.protocol.window_size =
        std::max(spec.protocol.window_size, spec.protocol.fec.group_size());
    spec.protocol.selective_repeat = true;
    spec.protocol.receiver_driven_timeouts = true;
  }
  spec.cluster.link.frame_error_rate = flags.get_double("loss", 0.0);
  const double burst = flags.get_double("burst", 0.0);
  if (burst > 0.0) {
    spec.cluster.link.faults.burst.p_good_to_bad = burst;
    spec.cluster.link.faults.burst.p_bad_to_good = 0.125;
  }
  const std::string topo = flags.get("topo", "");
  if (!topo.empty()) {
    const auto radix = static_cast<std::size_t>(flags.get_int("radix", 16));
    const auto spine = static_cast<std::size_t>(flags.get_int("spine", 4));
    if (topo == "single") {
      spec.cluster.topology = net::TopologySpec::single_switch();
    } else if (topo == "figure7") {
      spec.cluster.topology = net::TopologySpec::figure7();
    } else if (topo == "spineleaf") {
      spec.cluster.topology = net::TopologySpec::spine_leaf(radix, spine);
    } else if (topo == "fattree") {
      spec.cluster.topology = net::TopologySpec::fat_tree(radix, 4, spine, 4);
    } else if (topo == "bus") {
      spec.cluster.topology = net::TopologySpec::shared_bus();
    } else {
      std::fprintf(stderr, "unknown --topo=%s\n", topo.c_str());
      return 1;
    }
  }
  spec.cluster.link.queue_frames =
      static_cast<std::size_t>(flags.get_int("queue", 512));
  if (flags.has("rcvbuf")) {
    spec.cluster.host.default_rcvbuf_bytes =
        static_cast<std::size_t>(flags.get_int("rcvbuf", 64 * 1024));
    spec.cluster.host.default_sndbuf_bytes = spec.cluster.host.default_rcvbuf_bytes;
  }
  if (flags.has("rtimeout")) {
    spec.protocol.receiver_timeout =
        sim::milliseconds(flags.get_int("rtimeout", 100));
  }
  if (flags.has("rto")) {
    spec.protocol.rto = sim::milliseconds(flags.get_int("rto", 100));
    spec.protocol.max_rto = std::max(spec.protocol.max_rto, spec.protocol.rto);
  }
  if (flags.has("allocrto")) {
    spec.protocol.alloc_rto = sim::milliseconds(flags.get_int("allocrto", 10));
  }
  spec.time_limit = sim::seconds(flags.get_double("limit", 5.0));

  const auto host_start = std::chrono::steady_clock::now();
  harness::RunResult r = bench::run_instrumented(spec, options);
  // Host time varies run to run, so it goes to stderr: stdout stays a
  // deterministic golden.
  std::fprintf(stderr, "host_seconds=%.3f\n",
               std::chrono::duration<double>(std::chrono::steady_clock::now() - host_start)
                   .count());
  std::printf("completed=%d seconds=%.9f (%s) error='%s'\n", r.completed, r.seconds,
              str_format("%.1fMbps", r.throughput_bps() / 1e6).c_str(), r.error.c_str());
  const auto& s = r.sender;
  std::printf("sender: data=%llu retx=%llu acks=%llu naks=%llu alloc_req=%llu "
              "alloc_rsp=%llu rto=%llu suppressed=%llu stale=%llu\n",
              (unsigned long long)s.data_packets_sent, (unsigned long long)s.retransmissions,
              (unsigned long long)s.acks_received, (unsigned long long)s.naks_received,
              (unsigned long long)s.alloc_requests_sent,
              (unsigned long long)s.alloc_responses_received,
              (unsigned long long)s.rto_fires,
              (unsigned long long)s.suppressed_retransmissions,
              (unsigned long long)s.stale_packets);
  std::uint64_t acks = 0, naks = 0, dups = 0, gaps = 0, delivered = 0;
  std::uint64_t parity_rx = 0, decodes = 0, recovered = 0, gnaks = 0;
  for (const auto& rs : r.receivers) {
    acks += rs.acks_sent;
    naks += rs.naks_sent;
    dups += rs.duplicates;
    gaps += rs.gaps_detected;
    delivered += rs.messages_delivered;
    parity_rx += rs.parity_packets_received;
    decodes += rs.fec_decodes;
    recovered += rs.fec_blocks_recovered;
    gnaks += rs.group_naks_sent;
  }
  std::printf("receivers: delivered=%llu acks=%llu naks=%llu dups=%llu gaps=%llu\n",
              (unsigned long long)delivered, (unsigned long long)acks,
              (unsigned long long)naks, (unsigned long long)dups,
              (unsigned long long)gaps);
  if (entry->traits.fec) {
    std::printf("fec: parity_tx=%llu parity_rx=%llu decodes=%llu recovered=%llu "
                "group_naks=%llu (sender saw %llu)\n",
                (unsigned long long)s.parity_packets_sent,
                (unsigned long long)parity_rx, (unsigned long long)decodes,
                (unsigned long long)recovered, (unsigned long long)gnaks,
                (unsigned long long)s.group_naks_received);
  }
  std::printf("drops: rcvbuf=%llu link=%llu\n", (unsigned long long)r.rcvbuf_drops,
              (unsigned long long)r.link_drops);
  std::printf("sender: cpu_busy=%.4fs nic_busy=%.4fs of %.4fs\n",
              r.sender_cpu_busy_seconds, r.sender_nic_busy_seconds, r.seconds);
  std::printf("events=%llu\n", (unsigned long long)r.events_executed);
  return 0;
}

}  // namespace
}  // namespace rmc

int main(int argc, char** argv) { return rmc::run(argc, argv); }
