// Erasure-coded protocol engines (beyond the paper; SRM's enduring
// lesson per Yu et al. is exactly this repair-traffic trade-off): the
// sender streams k data packets followed by m parity packets per group,
// receivers buffer the group and decode around up to m erasures, and
// only a group that cannot decode falls back to a selective-repeat
// GROUP_NAK naming the missing blocks. Two kinds share the machinery:
//
//   kEcXor — m = 1, plain XOR parity: one extra frame per group repairs
//            any single loss inside it (RAID-4 over the wire).
//   kEcRs  — Vandermonde Reed-Solomon MDS parity (default k=32, m=8):
//            any m losses per group decode; burst-tolerant.
//
// The group structure itself (parity emission, group buffering, the MDS
// decode rule, one cumulative ACK per closed group, the GROUP_NAK
// fallback and its repair of exactly the named blocks) lives in the
// sender/receiver shells, keyed on config.fec; the engine supplies only
// the per-packet acknowledgment policy.
#include "common/strings.h"
#include "rmcast/engine/common.h"
#include "rmcast/engine/engines.h"
#include "rmcast/fec/codec.h"

namespace rmc::rmcast {

namespace {

class EcEngine final : public ProtocolEngine {
 public:
  // Per-packet ACKs would defeat the point of group acknowledgment; the
  // receiver sends its cumulative ACK at group close instead. The one
  // per-packet case that must answer immediately is a retransmitted
  // duplicate: the sender is in a repair round and waits on an ACK the
  // group close already sent once (and which was evidently lost or stale).
  void on_data_event(ReceiverOps& ops, const DataEvent& event) const override {
    if (event.duplicate && (event.flags & kFlagRetrans) != 0) {
      ops.send_cum_ack();
    }
  }
};

std::string validate_ec(const ProtocolConfig& config, std::size_t) {
  const FecParams& fec = config.fec;
  if (!fec.is_set()) {
    return "FEC protocols need fec.k and fec.m set (recommend_config fills "
           "defaults)";
  }
  if (fec.k == 0 || fec.k > fec::kMaxK) {
    return str_format("fec.k %zu out of range [1, %zu]: the GROUP_NAK bitmap "
                      "is 64 bits",
                      fec.k, fec::kMaxK);
  }
  if (fec.m == 0 || fec.m > fec::kMaxM) {
    return str_format("fec.m %zu out of range [1, %zu]", fec.m, fec::kMaxM);
  }
  if (fec.group_size() > config.window_size) {
    return str_format(
        "FEC group of %zu (k=%zu + m=%zu) exceeds window_size %zu: the sender "
        "could never emit a full group before stalling",
        fec.group_size(), fec.k, fec.m, config.window_size);
  }
  if (!config.selective_repeat) {
    return "FEC protocols require selective_repeat: a group is assembled from "
           "out-of-order blocks a Go-Back-N receiver would discard";
  }
  if (!config.receiver_driven_timeouts) {
    return "FEC protocols require receiver_driven_timeouts: a tail loss that "
           "empties the wire leaves only the receiver's inactivity timer to "
           "trigger the GROUP_NAK fallback";
  }
  if (config.multicast_nak_suppression) {
    return "FEC protocols do not support multicast_nak_suppression: GROUP_NAKs "
           "are unicast and already near-suppressed by parity decoding";
  }
  if (config.peer_repair) {
    return "FEC protocols do not support peer_repair: parity already provides "
           "the distributed repair path";
  }
  if (config.unicast_nak_retransmissions) {
    return "FEC protocols do not support unicast_nak_retransmissions: a group "
           "repair is multicast so one round serves every stuck receiver";
  }
  return "";
}

std::string validate_ec_xor(const ProtocolConfig& config, std::size_t n) {
  if (config.fec.is_set() && config.fec.m != 1) {
    return str_format("EC-XOR carries exactly one parity per group, fec.m=%zu",
                      config.fec.m);
  }
  return validate_ec(config, n);
}

std::string describe_ec(const ProtocolConfig& config) {
  return str_format(" k=%zu m=%zu", config.fec.k, config.fec.m);
}

// Shared tuning scaffold: pipeline-friendly packets, a window that holds
// at least one full group, and the SR + receiver-timer options the
// validator demands.
void tune_ec(ProtocolConfig& config, std::uint64_t message_bytes) {
  config.packet_size = tuning::kLargeMessagePacket;
  const std::size_t packets_in_message = static_cast<std::size_t>(
      (message_bytes + tuning::kLargeMessagePacket - 1) / tuning::kLargeMessagePacket);
  config.window_size = std::clamp(
      std::min(packets_in_message,
               tuning::kLargeMessageBuffer / tuning::kLargeMessagePacket),
      tuning::kMinWindow, tuning::kMaxWindow);
  config.window_size = std::max(config.window_size, config.fec.group_size());
  config.selective_repeat = true;
  config.receiver_driven_timeouts = true;
}

void tune_ec_xor(ProtocolConfig& config, std::uint64_t message_bytes, std::size_t) {
  // One parity per 16 blocks: 6.25% overhead, repairs isolated losses.
  config.fec.k = 16;
  config.fec.m = 1;
  tune_ec(config, message_bytes);
}

void tune_ec_rs(ProtocolConfig& config, std::uint64_t message_bytes, std::size_t) {
  // k=32, m=8: 25% overhead, rides out 8-loss bursts per group (the
  // EC-MDS-UDP shape).
  config.fec.k = 32;
  config.fec.m = 8;
  tune_ec(config, message_bytes);
}

// Grid points carry the reception options the validator demands, so a
// plain (packet, window) base expands into runnable configurations.
ProtocolConfig ec_grid_point(const ProtocolConfig& base, std::size_t k,
                             std::size_t m) {
  ProtocolConfig c = base;
  c.fec.k = k;
  c.fec.m = m;
  c.selective_repeat = true;
  c.receiver_driven_timeouts = true;
  c.multicast_nak_suppression = false;
  c.peer_repair = false;
  c.unicast_nak_retransmissions = false;
  c.window_size = std::max(c.window_size, c.fec.group_size());
  return c;
}

void grid_ec_xor(const ProtocolConfig& base, std::vector<ProtocolConfig>& out) {
  for (std::size_t k : {4u, 8u, 16u, 32u, 64u}) {
    out.push_back(ec_grid_point(base, k, 1));
  }
}

void grid_ec_rs(const ProtocolConfig& base, std::vector<ProtocolConfig>& out) {
  // Overhead (m) and rate (k/m) probed independently: the best code for a
  // bursty channel is not always the best for uniform loss, and the 4:1
  // diagonal the old grid walked hid that.
  for (std::size_t m : {2u, 4u, 8u, 16u}) {
    for (std::size_t ratio : {2u, 4u, 8u}) {
      const std::size_t k = m * ratio;
      if (k > fec::kMaxK) continue;
      out.push_back(ec_grid_point(base, k, m));
    }
  }
}

EngineEntry make_ec_entry() {
  EngineEntry entry;
  entry.engine = [] {
    static const EcEngine engine;
    return static_cast<const ProtocolEngine*>(&engine);
  };
  entry.traits.fec = true;
  entry.traits.describe_knobs = describe_ec;
  return entry;
}

}  // namespace

EngineEntry ec_xor_engine_entry() {
  EngineEntry entry = make_ec_entry();
  entry.kind = ProtocolKind::kEcXor;
  entry.traits.id = "ecxor";
  entry.traits.display_name = "EC-XOR";
  entry.traits.validate = validate_ec_xor;
  entry.traits.apply_recommended_tuning = tune_ec_xor;
  entry.traits.tuning_variants = grid_ec_xor;
  return entry;
}

EngineEntry ec_rs_engine_entry() {
  EngineEntry entry = make_ec_entry();
  entry.kind = ProtocolKind::kEcRs;
  entry.traits.id = "ecrs";
  entry.traits.display_name = "EC-RS";
  entry.traits.validate = validate_ec;
  entry.traits.apply_recommended_tuning = tune_ec_rs;
  entry.traits.tuning_variants = grid_ec_rs;
  return entry;
}

}  // namespace rmc::rmcast
