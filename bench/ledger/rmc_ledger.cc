// rmc_ledger: one workload of the ledger benchmark, in its own process.
//
//   rmc_ledger --workload=NAME --seed=N --duration=SECONDS [--traced]
//   rmc_ledger --workload=NAME --seed=N --setup-only [--t0-ns=MONOTONIC_NS]
//
// Every workload is a closed loop with one client and one transfer
// outstanding (MulticastSender::send requires an idle sender). The run
// sets up, warms up untimed, then times a fixed-length phase. Output is
// one "name value unit" line per metric on stdout; run.py turns those into
// the benchmark's JSON result. A delivery with wrong bytes exits non-zero.
//
// --traced replaces the timed phase with the per-layer pass: each transfer
// runs untraced and again through the layer_spans.h decorators, and the
// two runs are checked against each other.
//
// --setup-only stops once the workload is ready to send and prints
// setup_s, measured from --t0-ns (the launcher's CLOCK_MONOTONIC reading
// taken just before it spawned this process) so process start counts.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/testbed.h"
#include "layer_spans.h"
#include "rmcast/engine/registry.h"
#include "rmcast/receiver.h"
#include "rmcast/sender.h"
#include "rmcast/session.h"

namespace rmc::ledger {
namespace {

constexpr double kWarmupSeconds = 1.0;
// Timed phases are cut into slices of about this length (see
// report_end_to_end).
constexpr double kSliceSeconds = 0.25;
constexpr sim::Time kPosixMessageLimit = sim::seconds(5.0);

// ------------------------------------------------------------------ output

void emit(const char* name, double value, const char* unit) {
  std::printf("%s %.17g %s\n", name, value, unit);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Linear interpolation between order statistics.
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::uint64_t cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Udp RcvbufErrors from /proc/net/snmp: datagrams the kernel dropped
// because a socket's receive buffer was full. 0 when unreadable.
std::uint64_t udp_rcvbuf_errors() {
  std::ifstream in("/proc/net/snmp");
  std::string header, values;
  while (std::getline(in, header) && std::getline(in, values)) {
    if (header.rfind("Udp:", 0) != 0) continue;
    std::istringstream names(header), nums(values);
    std::string name, num;
    while (names >> name && nums >> num) {
      if (name == "RcvbufErrors") return std::stoull(num);
    }
  }
  return 0;
}

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "rmc_ledger: %s\n", why.c_str());
  std::exit(1);
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void print() const {
    emit("attempted", static_cast<double>(attempted), "count");
    emit("failed", static_cast<double>(failed), "count");
    emit("correct", correct ? 1.0 : 0.0, "bool");
  }
};

// One slice of a timed phase.
struct Slice {
  double seconds = 0.0;
  std::uint64_t transfers = 0;  // completed
  std::uint64_t bytes = 0;      // message bytes of completed transfers
  std::vector<double> latency_us;
};

// The end-to-end metrics. Each is computed per slice, and the run reports
// the level of its fastest tenth of slices: the 90th percentile of slice
// throughputs, the 10th percentile of slice latencies. Other load on the
// machine only ever slows a slice, and on a shared 4-vCPU VM it moved the
// median slice up to twice as much from run to run as this fast tail.
// Latency is send() to completion of one transfer.
void report_end_to_end(std::vector<Slice>& slices) {
  constexpr double kFastTail = 0.10;
  std::vector<double> rate, mbps, p50, p90;
  std::size_t samples = 0, fewest = SIZE_MAX;
  for (Slice& s : slices) {
    rate.push_back(static_cast<double>(s.transfers) / s.seconds);
    mbps.push_back(static_cast<double>(s.bytes) * 8.0 / 1e6 / s.seconds);
    samples += s.latency_us.size();
    fewest = std::min(fewest, s.latency_us.size());
    p50.push_back(percentile(s.latency_us, 0.50));
    p90.push_back(percentile(s.latency_us, 0.90));
  }
  emit("transfers_per_s", percentile(rate, 1.0 - kFastTail), "1/s");
  emit("goodput_mbps", percentile(mbps, 1.0 - kFastTail), "Mbps");
  emit("latency_p50_us", percentile(p50, kFastTail), "us");
  emit("latency_p90_us", percentile(p90, kFastTail), "us");
  emit("peak_rss_mb", peak_rss_mb(), "MB");
  std::fprintf(stderr, "rmc_ledger: %zu latency samples in %zu slices (fewest %zu)\n",
               samples, slices.size(), fewest);
}

// Per-layer protocol counters summed over a phase.
struct ProtocolCounts {
  std::uint64_t data_packets = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t naks = 0;  // NAKs + GROUP_NAKs sent by receivers
  std::uint64_t fec_decodes = 0;

  void add(const rmcast::SenderStats& s) {
    data_packets += s.data_packets_sent;
    retransmissions += s.retransmissions;
  }
  void add(const rmcast::ReceiverStats& r) {
    naks += r.naks_sent + r.group_naks_sent;
    fec_decodes += r.fec_decodes;
  }
  ProtocolCounts operator-(const ProtocolCounts& o) const {
    return {data_packets - o.data_packets, retransmissions - o.retransmissions,
            naks - o.naks, fec_decodes - o.fec_decodes};
  }
};

// The layer metrics every traced pass reports, whatever the backend.
struct LayerReport {
  LayerClock clock;
  std::uint64_t transfers = 0;
  std::uint64_t wall_ns = 0;    // send() to completion, traced transfers
  std::uint64_t cpu_ns = 0;     // process CPU over the same intervals
  std::uint64_t events = 0;     // sim events / posix callbacks dispatched
  double build_us = 0.0;        // wiring one transfer's endpoints
  double overhead_ratio = 0.0;  // traced over untraced transfers per second
  ProtocolCounts counts;
  std::uint64_t link_drops = 0;
  std::uint64_t rcvbuf_errors = 0;
  double datagrams_per_tx_syscall = 0.0;

  void print() const {
    const LayerClock& c = clock;
    const double self = static_cast<double>(c.self_ns[kSender][kRx] +
                                            c.self_ns[kSender][kCallback] +
                                            c.self_ns[kReceiver][kRx] +
                                            c.self_ns[kReceiver][kCallback]);
    const double wall = static_cast<double>(wall_ns);
    const double below = std::max(0.0, wall - self - static_cast<double>(c.tx_ns));
    const double n = static_cast<double>(transfers);
    emit("rmcast.sender_ns_per_rx",
         ratio(static_cast<double>(c.self_ns[kSender][kRx]),
               static_cast<double>(c.spans[kSender][kRx])),
         "ns");
    emit("rmcast.receiver_ns_per_rx",
         ratio(static_cast<double>(c.self_ns[kReceiver][kRx]),
               static_cast<double>(c.spans[kReceiver][kRx])),
         "ns");
    emit("rmcast.time_share", ratio(self, wall), "ratio");
    emit("runtime.tx_ns_per_call",
         ratio(static_cast<double>(c.tx_ns), static_cast<double>(c.tx_calls)), "ns");
    emit("runtime.loop_us_per_transfer", ratio(below / 1e3, n), "us");
    emit("runtime.idle_share",
         std::max(0.0, ratio(wall - static_cast<double>(cpu_ns), wall)), "ratio");
    emit("runtime.datagrams_per_tx_syscall", datagrams_per_tx_syscall, "count");
    emit("fabric.ns_per_event", ratio(below, static_cast<double>(events)), "ns");
    emit("fabric.events_per_transfer", ratio(static_cast<double>(events), n), "count");
    emit("harness.testbed_build_us", build_us, "us");
    emit("net.link_drops_per_transfer", ratio(static_cast<double>(link_drops), n),
         "count");
    emit("rmcast.retx_ratio",
         ratio(static_cast<double>(counts.retransmissions),
               static_cast<double>(counts.data_packets)),
         "ratio");
    emit("rmcast.naks_per_transfer", ratio(static_cast<double>(counts.naks), n), "count");
    emit("rmcast.fec_decodes_per_transfer",
         ratio(static_cast<double>(counts.fec_decodes), n), "count");
    emit("kernel.udp_rcvbuf_errors", static_cast<double>(rcvbuf_errors), "count");
    emit("trace.overhead_ratio", overhead_ratio, "ratio");
  }
};

// ------------------------------------------------------ simulated workloads
//
// One mix = the transfers of one pass. Timed phases count whole passes
// only, and pass p runs every transfer with seed + p, so a run's inputs
// are a pure function of --seed. Transfers call harness::run_multicast
// directly: SweepRunner would turn repeats into cache hits and time its
// thread pool.

using Mix = std::vector<harness::MulticastRunSpec>;

constexpr std::uint64_t kTwoMiB = 2 * 1024 * 1024;

// The erasure-coded kinds as abl_ec_crossover configures them.
rmcast::ProtocolConfig ec_config(rmcast::ProtocolKind kind, std::size_t k, std::size_t m) {
  rmcast::ProtocolConfig c;
  c.kind = kind;
  c.packet_size = 8000;
  c.window_size = 44;  // one full EC-RS group
  c.selective_repeat = true;
  c.receiver_driven_timeouts = true;
  c.fec.k = k;
  c.fec.m = m;
  return c;
}

// Figure 7 testbed, 30 receivers, 2 MB, no errors: the Table 3 tuned
// configurations, the binary tree at the trees' tuning, and both EC kinds.
Mix sim_paper_mix() {
  std::vector<rmcast::ProtocolConfig> configs;
  rmcast::ProtocolConfig c;
  c.kind = rmcast::ProtocolKind::kAck;
  c.packet_size = 50'000;
  c.window_size = 5;
  configs.push_back(c);
  c = {};
  c.kind = rmcast::ProtocolKind::kNakPolling;
  c.packet_size = 8'000;
  c.window_size = 50;
  c.poll_interval = 43;
  configs.push_back(c);
  c = {};
  c.kind = rmcast::ProtocolKind::kRing;
  c.packet_size = 8'000;
  c.window_size = 50;
  configs.push_back(c);
  for (std::size_t height : {std::size_t{6}, std::size_t{15}}) {
    c = {};
    c.kind = rmcast::ProtocolKind::kFlatTree;
    c.packet_size = 8'000;
    c.window_size = 20;
    c.tree_height = height;
    configs.push_back(c);
  }
  c = {};
  c.kind = rmcast::ProtocolKind::kBinaryTree;
  c.packet_size = 8'000;
  c.window_size = 20;
  configs.push_back(c);
  configs.push_back(ec_config(rmcast::ProtocolKind::kEcXor, 16, 1));
  configs.push_back(ec_config(rmcast::ProtocolKind::kEcRs, 32, 8));

  Mix mix;
  for (const rmcast::ProtocolConfig& config : configs) {
    harness::MulticastRunSpec spec;
    spec.n_receivers = 30;
    spec.message_bytes = kTwoMiB;
    spec.protocol = config;
    mix.push_back(spec);
  }
  return mix;
}

// 15 receivers, 2 MB, 2% stationary Gilbert-Elliott loss with mean burst
// 4: the only workload that exercises NAKs, retransmission, GROUP_NAK and
// Reed-Solomon decode.
Mix sim_lossy_mix() {
  constexpr double kLoss = 0.02;
  constexpr double kPBadToGood = 0.25;
  rmcast::ProtocolConfig nak = ec_config(rmcast::ProtocolKind::kNakPolling, 0, 0);
  nak.poll_interval = 35;
  rmcast::ProtocolConfig ring = ec_config(rmcast::ProtocolKind::kRing, 0, 0);
  Mix mix;
  for (const rmcast::ProtocolConfig& config :
       {nak, ring, ec_config(rmcast::ProtocolKind::kEcXor, 16, 1),
        ec_config(rmcast::ProtocolKind::kEcRs, 32, 8)}) {
    harness::MulticastRunSpec spec;
    spec.n_receivers = 15;
    spec.message_bytes = kTwoMiB;
    spec.protocol = config;
    spec.cluster.link.faults.burst.p_bad_to_good = kPBadToGood;
    spec.cluster.link.faults.burst.p_good_to_bad = kLoss * kPBadToGood / (1.0 - kLoss);
    spec.time_limit = sim::seconds(300.0);
    mix.push_back(spec);
  }
  return mix;
}

// Every kind on spine_leaf(16,4) at N = 1023 with 128 KiB messages, tuned
// as fig_scalability_xl tunes them: control-plane heavy, few data bytes.
Mix sim_scale_mix() {
  constexpr std::size_t kN = 1023;
  constexpr std::uint64_t kMessageBytes = 131'072;
  constexpr std::size_t kPacketBytes = 8192;
  Mix mix;
  for (const rmcast::EngineEntry& entry : rmcast::ProtocolRegistry::instance().entries()) {
    harness::MulticastRunSpec spec;
    spec.n_receivers = kN;
    spec.message_bytes = kMessageBytes;
    spec.protocol.kind = entry.kind;
    entry.traits.apply_recommended_tuning(spec.protocol, kMessageBytes, kN);
    spec.protocol.packet_size = kPacketBytes;
    spec.cluster.topology = net::TopologySpec::spine_leaf(16, 4);
    spec.cluster.host.default_rcvbuf_bytes = 4 * 1024 * 1024;
    spec.cluster.host.default_sndbuf_bytes = 4 * 1024 * 1024;
    spec.cluster.link.queue_frames = 16'384;
    const sim::Time fan_in_drain = sim::microseconds(static_cast<std::int64_t>(kN) * 100);
    spec.protocol.rto = std::max(spec.protocol.rto, fan_in_drain);
    spec.protocol.alloc_rto = std::max(spec.protocol.alloc_rto, fan_in_drain);
    spec.protocol.max_rto = std::max(spec.protocol.max_rto, spec.protocol.rto);
    if (spec.protocol.receiver_driven_timeouts) {
      spec.protocol.receiver_timeout = std::max<sim::Time>(
          spec.protocol.receiver_timeout, sim::milliseconds(static_cast<std::int64_t>(kN)));
    }
    mix.push_back(spec);
  }
  return mix;
}

// Classifies a finished run_multicast: false counts as a failed transfer
// (timeout or eviction). Wrong bytes are not a failure but a broken
// program, so they end the process.
bool sim_transfer_ok(const harness::RunResult& r) {
  const bool sender_done = !r.outcome.receivers.empty();
  if (sender_done && !r.completed) die("wrong bytes delivered: " + r.error);
  if (!r.completed) {
    std::fprintf(stderr, "rmc_ledger: transfer failed: %s\n", r.error.c_str());
    return false;
  }
  return r.outcome.all_delivered();
}

// One pass over the mix with seed `seed`, accumulated into `slice`.
void sim_pass(const Mix& mix, std::uint64_t seed, Slice& slice, Tally& tally) {
  for (harness::MulticastRunSpec spec : mix) {
    spec.seed = seed;
    const std::uint64_t start = now_ns();
    const harness::RunResult r = harness::run_multicast(spec);
    slice.latency_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
    ++tally.attempted;
    if (sim_transfer_ok(r)) {
      ++slice.transfers;
      slice.bytes += spec.message_bytes;
    } else {
      ++tally.failed;
    }
  }
}

// The harness's payload pattern (experiment.cc), for the traced replica.
Buffer harness_pattern(std::uint64_t n_bytes) {
  Buffer data(n_bytes);
  for (std::uint64_t i = 0; i < n_bytes; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  return data;
}

struct Replica {
  bool completed = false;
  double seconds = 0.0;
  std::uint64_t events = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t build_ns = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t run_cpu_ns = 0;
};

// run_multicast's transfer rebuilt on a harness::Testbed with the same
// spec and seed, every runtime and socket behind a timing decorator.
Replica replicate(const harness::MulticastRunSpec& spec, LayerClock& clock) {
  Replica out;
  const std::uint64_t build_start = now_ns();
  inet::ClusterParams params = spec.cluster;
  params.seed = spec.seed;
  harness::Testbed bed(spec.n_receivers, params);
  out.build_ns = now_ns() - build_start;
  if (!spec.faults.empty()) bed.cluster().apply_fault_plan(spec.faults);

  TimedRuntime sender_rt(bed.sender_runtime(), clock, kSender);
  TimedSocket sender_socket(bed.sender_socket(), clock, kSender);
  rmcast::MulticastSender sender(sender_rt, sender_socket, bed.membership(),
                                 spec.protocol);
  const Buffer message = harness_pattern(spec.message_bytes);
  std::vector<bool> delivered_ok(spec.n_receivers, false);
  std::vector<std::unique_ptr<TimedRuntime>> runtimes;
  std::vector<std::unique_ptr<TimedSocket>> sockets;
  std::vector<std::unique_ptr<rmcast::MulticastReceiver>> receivers;
  for (std::size_t i = 0; i < spec.n_receivers; ++i) {
    runtimes.push_back(
        std::make_unique<TimedRuntime>(bed.receiver_runtime(i), clock, kReceiver));
    sockets.push_back(
        std::make_unique<TimedSocket>(bed.receiver_data_socket(i), clock, kReceiver));
    TimedSocket& data = *sockets.back();
    sockets.push_back(
        std::make_unique<TimedSocket>(bed.receiver_control_socket(i), clock, kReceiver));
    TimedSocket& control = *sockets.back();
    receivers.push_back(std::make_unique<rmcast::MulticastReceiver>(
        *runtimes.back(), data, control, bed.membership(), i, spec.protocol));
    receivers.back()->set_message_handler(
        [&, i](const Buffer& received, std::uint32_t) {
          delivered_ok[i] = received == message;
        });
  }

  bool done = false;
  sim::Time completed_at = 0;
  const std::uint64_t run_start = now_ns();
  const std::uint64_t cpu_start = cpu_ns();
  {
    Span span(clock, kSender, kCallback);
    sender.send(BytesView(message.data(), message.size()),
                [&](const rmcast::SendOutcome&) {
                  done = true;
                  completed_at = bed.simulator().now();
                });
  }
  while (!done && bed.simulator().now() < spec.time_limit) {
    if (!bed.simulator().step()) break;
  }
  out.run_ns = now_ns() - run_start;
  out.run_cpu_ns = cpu_ns() - cpu_start;

  out.completed = done && std::all_of(delivered_ok.begin(), delivered_ok.end(),
                                      [](bool ok) { return ok; });
  out.seconds = done ? sim::to_seconds(completed_at) : 0.0;
  out.events = bed.simulator().events_executed();
  out.data_packets = sender.stats().data_packets_sent;
  return out;
}

// Untimed: transfers from the mix until a pass or kWarmupSeconds is done.
void sim_warmup(const Mix& mix, std::uint64_t seed) {
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < mix.size() && seconds_since(start) < kWarmupSeconds; ++i) {
    harness::MulticastRunSpec spec = mix[i];
    spec.seed = seed;
    sim_transfer_ok(harness::run_multicast(spec));
  }
}

void run_sim_timed(const Mix& mix, std::uint64_t seed, double duration) {
  Tally tally;
  std::vector<Slice> slices;
  std::uint64_t pass = 1;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < duration) {
    Slice slice;
    const std::uint64_t slice_start = now_ns();
    do {
      sim_pass(mix, seed + pass++, slice, tally);
    } while (seconds_since(slice_start) < kSliceSeconds);
    slice.seconds = seconds_since(slice_start);
    slices.push_back(std::move(slice));
  }
  report_end_to_end(slices);
  tally.print();
}

void run_sim_traced(const Mix& mix, std::uint64_t seed, double duration) {
  Tally tally;
  LayerReport layers;
  std::uint64_t untraced_ns = 0, traced_ns = 0, build_ns = 0;
  const std::uint64_t rcvbuf_before = udp_rcvbuf_errors();
  const std::uint64_t start = now_ns();
  for (std::uint64_t pass = 1; seconds_since(start) < duration; ++pass) {
    for (harness::MulticastRunSpec spec : mix) {
      spec.seed = seed + pass;
      std::uint64_t t0 = now_ns();
      const harness::RunResult r = harness::run_multicast(spec);
      untraced_ns += now_ns() - t0;
      t0 = now_ns();
      const Replica rep = replicate(spec, layers.clock);
      traced_ns += now_ns() - t0;

      ++tally.attempted;
      if (!sim_transfer_ok(r) || !rep.completed) ++tally.failed;
      if (rep.seconds != r.seconds || rep.events != r.events_executed ||
          rep.data_packets != r.sender.data_packets_sent) {
        tally.correct = false;
        std::fprintf(stderr,
                     "rmc_ledger: traced replica diverged (%s seed %llu): "
                     "%.6fs/%llu events/%llu packets vs %.6fs/%llu/%llu\n",
                     rmcast::protocol_name(spec.protocol.kind),
                     static_cast<unsigned long long>(spec.seed), rep.seconds,
                     static_cast<unsigned long long>(rep.events),
                     static_cast<unsigned long long>(rep.data_packets), r.seconds,
                     static_cast<unsigned long long>(r.events_executed),
                     static_cast<unsigned long long>(r.sender.data_packets_sent));
      }
      ++layers.transfers;
      layers.wall_ns += rep.run_ns;
      layers.cpu_ns += rep.run_cpu_ns;
      layers.events += rep.events;
      build_ns += rep.build_ns;
      layers.counts.add(r.sender);
      for (const rmcast::ReceiverStats& rs : r.receivers) layers.counts.add(rs);
      layers.link_drops += r.link_drops + r.fault_drops;
    }
  }
  layers.build_us = ratio(static_cast<double>(build_ns) / 1e3,
                          static_cast<double>(layers.transfers));
  layers.overhead_ratio =
      ratio(static_cast<double>(untraced_ns), static_cast<double>(traced_ns));
  layers.rcvbuf_errors = udp_rcvbuf_errors() - rcvbuf_before;
  layers.print();
  tally.print();
}

// ------------------------------------------------------ real-socket workloads
//
// PosixSession on loopback: 4 receivers, NAK-polling with 8 KiB packets,
// window 16, poll 12. Window x packet (128 KiB) stays under the default
// 212992 B SO_RCVBUF; at window 32 the kernel drops datagrams and every
// message waits on RTO recovery.
//
// Ports: the 48800-48899 block, disjoint from the tests (48300/48400),
// posix_loopback (48600/48700) and the examples (47000/47100). Each
// workload takes 30 ports from its base: the untraced session at base,
// the traced wiring at base + 10, and --setup-only launches (which run
// while a measured process holds the first block) at base + 20.

constexpr std::size_t kPosixReceivers = 4;
constexpr std::size_t kPayloadPool = 4;

rmcast::ProtocolConfig posix_config() {
  rmcast::ProtocolConfig c;
  c.kind = rmcast::ProtocolKind::kNakPolling;
  c.packet_size = 8192;
  c.window_size = 16;
  c.poll_interval = 12;
  return c;
}

rmcast::GroupMembership loopback_membership(std::uint16_t base_port) {
  rmcast::GroupMembership m;
  m.group = {net::Ipv4Addr(239, 255, 48, static_cast<std::uint8_t>(base_port % 100)),
             base_port};
  m.sender_control = {net::Ipv4Addr(127, 0, 0, 1),
                      static_cast<std::uint16_t>(base_port + 1)};
  for (std::size_t i = 0; i < kPosixReceivers; ++i) {
    m.receiver_control.push_back(
        {net::Ipv4Addr(127, 0, 0, 1), static_cast<std::uint16_t>(base_port + 2 + i)});
  }
  return m;
}

[[noreturn]] void sockets_refused(std::uint16_t base_port) {
  die("the OS refused the loopback UDP sockets (ports " + std::to_string(base_port) +
      "-" + std::to_string(base_port + 1 + kPosixReceivers) +
      ", multicast group joined on 127.0.0.1); see the warning above");
}

// Seeded message contents, cycled by message index.
std::vector<Buffer> make_payloads(std::uint64_t seed, std::size_t bytes) {
  Rng rng(seed);
  std::vector<Buffer> pool(kPayloadPool, Buffer(bytes));
  for (Buffer& b : pool) {
    for (std::size_t i = 0; i < b.size(); i += sizeof(std::uint64_t)) {
      const std::uint64_t word = rng.next();
      std::memcpy(b.data() + i, &word, std::min(sizeof word, b.size() - i));
    }
  }
  return pool;
}

// Closed loop over one sender and its receivers: send, run the
// event loop until the completion callback, repeat. Every delivery is
// byte-checked against the payload its session carried. A message that
// times out leaves the sender busy, so it ends the process.
class PosixLoop {
 public:
  PosixLoop(rmcast::MulticastSender& sender, rt::PosixRuntime& runtime,
            const std::vector<Buffer>& payloads, LayerClock* clock)
      : sender_(sender), runtime_(runtime), payloads_(payloads), clock_(clock) {}

  void on_delivery(std::uint32_t session, const Buffer& message) {
    auto it = pending_.find(session);
    if (it == pending_.end() || message != payloads_[it->second.payload]) {
      die("wrong bytes delivered on session " + std::to_string(session));
    }
    if (++it->second.deliveries == kPosixReceivers) pending_.erase(it);
  }

  // One message; returns send-to-completion nanoseconds.
  std::uint64_t transfer() {
    const std::size_t index = sent_++ % payloads_.size();
    const Buffer& payload = payloads_[index];
    bool done = false;
    bool delivered = false;
    std::uint64_t done_at = 0;
    const std::uint64_t start = now_ns();
    auto on_complete = [&](const rmcast::SendOutcome& outcome) {
      done_at = now_ns();
      done = true;
      delivered = outcome.all_delivered();
      runtime_.stop();
    };
    if (clock_ != nullptr) {
      Span span(*clock_, kSender, kCallback);
      sender_.send(BytesView(payload.data(), payload.size()), on_complete);
    } else {
      sender_.send(BytesView(payload.data(), payload.size()), on_complete);
    }
    pending_[sender_.session()] = {index, 0};
    runtime_.run_for(kPosixMessageLimit);
    if (!done) die("a message did not complete within 5 s");
    if (!delivered) die("a receiver was evicted");
    return done_at - start;
  }

  // Messages until `seconds` pass; returns how many.
  std::uint64_t run_for(double seconds, std::vector<double>* latency_us) {
    std::uint64_t sent = 0;
    const std::uint64_t start = now_ns();
    while (seconds_since(start) < seconds) {
      const std::uint64_t ns = transfer();
      if (latency_us != nullptr) latency_us->push_back(static_cast<double>(ns) / 1e3);
      ++sent;
    }
    return sent;
  }

  // Completed messages some receiver never delivered, once the loop has
  // drained.
  std::size_t undelivered() {
    runtime_.run_for(sim::milliseconds(20));
    return pending_.size();
  }

  rmcast::MulticastSender& sender() { return sender_; }

 private:
  struct Pending {
    std::size_t payload = 0;
    std::size_t deliveries = 0;
  };

  rmcast::MulticastSender& sender_;
  rt::PosixRuntime& runtime_;
  const std::vector<Buffer>& payloads_;
  LayerClock* clock_;
  std::unordered_map<std::uint32_t, Pending> pending_;
  std::size_t sent_ = 0;
};

// PosixSession's socket wiring rebuilt with every runtime and socket
// behind a timing decorator (same socket options, same construction
// order as session.cc).
class PosixTraced {
 public:
  PosixTraced(std::uint16_t base_port, const std::vector<Buffer>& payloads,
              LayerClock& clock)
      : membership_(loopback_membership(base_port)),
        sender_rt_(runtime_, clock, kSender),
        receiver_rt_(runtime_, clock, kReceiver) {
    rt::PosixSocketOptions sender_options;
    sender_options.bind_addr = membership_.sender_control.addr;
    sender_options.port = membership_.sender_control.port;
    if (!open(sender_options, clock, kSender)) return;
    sender_ = std::make_unique<rmcast::MulticastSender>(sender_rt_, *timed_.back(),
                                                        membership_, posix_config());
    for (std::size_t i = 0; i < membership_.n_receivers(); ++i) {
      rt::PosixSocketOptions data_options;
      data_options.port = membership_.group.port;
      data_options.reuse_addr = true;
      data_options.join_groups = {membership_.group.addr};
      rt::PosixSocketOptions control_options;
      control_options.bind_addr = membership_.receiver_control[i].addr;
      control_options.port = membership_.receiver_control[i].port;
      if (!open(data_options, clock, kReceiver)) return;
      TimedSocket& data = *timed_.back();
      if (!open(control_options, clock, kReceiver)) return;
      TimedSocket& control = *timed_.back();
      receivers_.push_back(std::make_unique<rmcast::MulticastReceiver>(
          receiver_rt_, data, control, membership_, i, posix_config()));
      receivers_.back()->set_message_handler(
          [this](const Buffer& message, std::uint32_t s) { loop_->on_delivery(s, message); });
    }
    loop_ = std::make_unique<PosixLoop>(*sender_, runtime_, payloads, &clock);
  }

  bool ok() const { return loop_ != nullptr; }
  PosixLoop& loop() { return *loop_; }
  rt::PosixRuntime& runtime() { return runtime_; }
  ProtocolCounts counts() const {
    ProtocolCounts c;
    c.add(sender_->stats());
    for (const auto& r : receivers_) c.add(r->stats());
    return c;
  }

 private:
  bool open(const rt::PosixSocketOptions& options, LayerClock& clock, Side side) {
    std::unique_ptr<rt::UdpSocket> socket = runtime_.open_socket(options);
    if (!socket) return false;
    timed_.push_back(std::make_unique<TimedSocket>(*socket, clock, side));
    raw_.push_back(std::move(socket));
    return true;
  }

  rmcast::GroupMembership membership_;
  rt::PosixRuntime runtime_;
  TimedRuntime sender_rt_;
  TimedRuntime receiver_rt_;
  std::vector<std::unique_ptr<rt::UdpSocket>> raw_;
  std::vector<std::unique_ptr<TimedSocket>> timed_;
  std::unique_ptr<rmcast::MulticastSender> sender_;
  std::vector<std::unique_ptr<rmcast::MulticastReceiver>> receivers_;
  std::unique_ptr<PosixLoop> loop_;
};

void check_all_delivered(PosixLoop& loop, Tally& tally) {
  if (const std::size_t missing = loop.undelivered(); missing > 0) {
    tally.correct = false;
    std::fprintf(stderr, "rmc_ledger: %zu completed messages missing a delivery\n",
                 missing);
  }
}

void run_posix_timed(PosixLoop& loop, std::size_t message_bytes, double duration) {
  loop.run_for(kWarmupSeconds / 2, nullptr);
  Tally tally;
  std::vector<Slice> slices;
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < duration) {
    Slice slice;
    const std::uint64_t slice_start = now_ns();
    slice.transfers = loop.run_for(kSliceSeconds, &slice.latency_us);
    slice.seconds = seconds_since(slice_start);
    slice.bytes = slice.transfers * message_bytes;
    tally.attempted += slice.transfers;
    slices.push_back(std::move(slice));
  }
  check_all_delivered(loop, tally);
  report_end_to_end(slices);
  tally.print();
}

void run_posix_traced(PosixLoop& untraced, std::uint16_t traced_port,
                      const std::vector<Buffer>& payloads, double duration) {
  LayerReport layers;
  const std::uint64_t build_start = now_ns();
  PosixTraced traced(traced_port, payloads, layers.clock);
  layers.build_us = static_cast<double>(now_ns() - build_start) / 1e3;
  if (!traced.ok()) sockets_refused(traced_port);

  untraced.run_for(kWarmupSeconds / 4, nullptr);
  traced.loop().run_for(kWarmupSeconds / 4, nullptr);
  layers.clock = {};

  // Alternate short untraced and traced slices so drift in machine load
  // hits both sides of the overhead ratio alike.
  constexpr double kTraceSlice = 0.25;
  Tally tally;
  std::uint64_t untraced_msgs = 0, untraced_ns = 0, untraced_packets = 0, traced_ns = 0;
  metrics::Registry& io = traced.runtime().metrics();
  auto tx_syscalls = [&io] {
    return io.counter("posix.sendmmsg_calls").value() +
           io.counter("posix.sendto_calls").value();
  };
  const std::uint64_t syscalls_before = tx_syscalls();
  const std::uint64_t datagrams_before = io.counter("posix.datagrams_sent").value();
  const ProtocolCounts counts_before = traced.counts();
  const std::uint64_t rcvbuf_before = udp_rcvbuf_errors();
  const std::uint64_t start = now_ns();
  while (seconds_since(start) < duration) {
    const std::uint64_t packets = untraced.sender().stats().data_packets_sent;
    std::uint64_t t0 = now_ns();
    untraced_msgs += untraced.run_for(kTraceSlice, nullptr);
    untraced_ns += now_ns() - t0;
    untraced_packets += untraced.sender().stats().data_packets_sent - packets;

    std::vector<double> latency_us;
    const std::uint64_t cpu0 = cpu_ns();
    t0 = now_ns();
    layers.transfers += traced.loop().run_for(kTraceSlice, &latency_us);
    traced_ns += now_ns() - t0;
    layers.cpu_ns += cpu_ns() - cpu0;
    for (double us : latency_us) layers.wall_ns += static_cast<std::uint64_t>(us * 1e3);
  }
  layers.rcvbuf_errors = udp_rcvbuf_errors() - rcvbuf_before;
  tally.attempted = untraced_msgs + layers.transfers;
  check_all_delivered(untraced, tally);
  check_all_delivered(traced.loop(), tally);

  layers.counts = traced.counts() - counts_before;
  if (layers.counts.data_packets * untraced_msgs != untraced_packets * layers.transfers) {
    tally.correct = false;
    std::fprintf(stderr,
                 "rmc_ledger: traced pass sent %llu data packets for %llu messages, "
                 "untraced %llu for %llu\n",
                 static_cast<unsigned long long>(layers.counts.data_packets),
                 static_cast<unsigned long long>(layers.transfers),
                 static_cast<unsigned long long>(untraced_packets),
                 static_cast<unsigned long long>(untraced_msgs));
  }
  for (const std::uint64_t spans : {layers.clock.spans[kSender][kRx],
                                    layers.clock.spans[kSender][kCallback],
                                    layers.clock.spans[kReceiver][kRx],
                                    layers.clock.spans[kReceiver][kCallback]}) {
    layers.events += spans;
  }
  layers.datagrams_per_tx_syscall =
      ratio(static_cast<double>(io.counter("posix.datagrams_sent").value() - datagrams_before),
            static_cast<double>(tx_syscalls() - syscalls_before));
  layers.overhead_ratio =
      ratio(ratio(static_cast<double>(layers.transfers), static_cast<double>(traced_ns)),
            ratio(static_cast<double>(untraced_msgs), static_cast<double>(untraced_ns)));
  layers.print();
  tally.print();
}

// ------------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double duration = 10.0;
  bool traced = false;
  bool setup_only = false;
  std::uint64_t t0_ns = 0;
};

void report_setup(const Options& o) { emit("setup_s", seconds_since(o.t0_ns), "s"); }

int run_sim(const Options& o, const Mix& mix) {
  for (const harness::MulticastRunSpec& spec : mix) {
    const std::string error = rmcast::validate(spec.protocol, spec.n_receivers);
    if (!error.empty()) die("invalid mix entry: " + error);
  }
  if (o.setup_only) {
    report_setup(o);
    return 0;
  }
  sim_warmup(mix, o.seed);
  if (o.traced) {
    run_sim_traced(mix, o.seed, o.duration);
  } else {
    run_sim_timed(mix, o.seed, o.duration);
  }
  return 0;
}

int run_posix(const Options& o, std::size_t message_bytes, std::uint16_t base_port) {
  const std::vector<Buffer> payloads = make_payloads(o.seed, message_bytes);
  const auto session_port = static_cast<std::uint16_t>(base_port + (o.setup_only ? 20 : 0));
  rmcast::PosixSession session(loopback_membership(session_port), posix_config());
  if (!session.ok()) sockets_refused(session_port);
  PosixLoop loop(session.sender(), session.runtime(), payloads, nullptr);
  session.set_message_handler(
      [&loop](std::size_t, const Buffer& message, std::uint32_t s) {
        loop.on_delivery(s, message);
      });
  if (o.setup_only) {
    report_setup(o);
    return 0;
  }
  if (o.traced) {
    run_posix_traced(loop, static_cast<std::uint16_t>(base_port + 10), payloads,
                     o.duration);
  } else {
    run_posix_timed(loop, message_bytes, o.duration);
  }
  return 0;
}

int run(int argc, char** argv) {
  const std::uint64_t entry_ns = now_ns();
  const Flags flags = Flags::parse(
      argc, argv,
      {{"workload", "posix_small | posix_bulk | sim_paper | sim_lossy | sim_scale"},
       {"seed", "seed every generated input derives from (default 1)"},
       {"duration", "seconds the timed (or traced) phase runs (default 10)"},
       {"traced", "run the per-layer pass instead of the end-to-end one"},
       {"setup-only", "stop when ready to send and print setup_s"},
       {"t0-ns", "CLOCK_MONOTONIC ns at which the launcher spawned this process"}});
  Options o;
  o.workload = flags.get("workload", "");
  o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  o.duration = flags.get_double("duration", 10.0);
  o.traced = flags.has("traced");
  o.setup_only = flags.has("setup-only");
  o.t0_ns = static_cast<std::uint64_t>(flags.get_int("t0-ns", 0));
  if (o.t0_ns == 0 || o.t0_ns > entry_ns) o.t0_ns = entry_ns;

  if (o.workload == "posix_small") return run_posix(o, 1024, 48800);
  if (o.workload == "posix_bulk") return run_posix(o, 1024 * 1024, 48830);
  if (o.workload == "sim_paper") return run_sim(o, sim_paper_mix());
  if (o.workload == "sim_lossy") return run_sim(o, sim_lossy_mix());
  if (o.workload == "sim_scale") return run_sim(o, sim_scale_mix());
  std::fprintf(stderr, "rmc_ledger: unknown --workload '%s'\n", o.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace rmc::ledger

int main(int argc, char** argv) { return rmc::ledger::run(argc, argv); }
